// Shared machinery for the library models: symbolic matrices (paper-scale
// views that are never dereferenced in timing mode), routine emission, and
// the standard run skeleton every model parameterises.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <memory>

#include "baselines/library_model.hpp"
#include "blas/tiled.hpp"
#include "runtime/runtime.hpp"

namespace xkb::baselines {

/// A matrix that exists only as an address range: timing-mode runs identify
/// tiles by origin address, so paper-scale operands (tens of GB) need no
/// real storage.  Each instance gets a disjoint address window.
template <typename T>
class SymbolicMatrix {
 public:
  SymbolicMatrix(std::size_t m, std::size_t n, int slot)
      : m_(m),
        n_(n),
        base_(reinterpret_cast<T*>(0x100000000000ull +
                                   static_cast<std::uint64_t>(slot) *
                                       0x040000000000ull)) {}

  MatrixView<T> view() const { return {base_, m_, n_, m_}; }
  MatrixView<const T> cview() const { return {base_, m_, n_, m_}; }

 private:
  std::size_t m_, n_;
  T* base_;
};

/// How a model places, sources and moves data: the policy knobs that
/// distinguish the libraries of the paper's comparison.
struct ModelSpec {
  std::string name;
  bool dmdas = false;            ///< dmdas scheduler instead of owner+WS
  bool stealing = true;          ///< owner-computes work stealing
  rt::HeuristicConfig heur;      ///< source policy + optimistic flag
  bool static_block_cyclic = false;      ///< force placement by output tile
  bool drop_inputs = false;              ///< stream inputs, no cross-task cache
  bool flush_outputs_each_task = false;  ///< host-centric outer products
  double task_overhead = 0.0;    ///< per-task runtime cost (seconds)
  int prepare_window = 6;        ///< per-device prefetch depth
  /// Fixed per-call setup cost (graph unrolling, performance-model lookup,
  /// grid/handle initialisation) -- dominates at small N; calibrated from
  /// the paper's small-matrix gaps.
  double call_overhead = 0.0;
  double peak_scale = 1.0;       ///< kernel quality vs cuBLAS (Slate batched)
  bool coherent_at_end = true;   ///< D2H of results included in the time
  bool lapack_conversion = false;  ///< Chameleon LAPACK layout conversions
  std::size_t max_n = SIZE_MAX;  ///< hard failure threshold (BLASX)
  mem::EvictionPolicy eviction = mem::EvictionPolicy::kReadOnlyFirst;
  std::vector<Blas3> routines;   ///< supported routines (empty = all nine)
};

/// Type-erased benchmark instance: how to emit the task graph, pre-place the
/// operands (data-on-device), and bring results home (data-on-host).
struct RoutinePlan {
  std::function<void()> emit;
  std::function<void()> distribute;
  std::function<void()> coherent;
  double flops = 0.0;
  double input_bytes = 0.0;   ///< operand footprint (layout conversions)
  double output_bytes = 0.0;
};

/// Build the plan for one paper benchmark (square FP64; complex FP64 for
/// HEMM/HERK/HER2K) on (P, Q)-grid block-cyclic mappings.
RoutinePlan plan_routine(rt::Runtime& runtime, Blas3 routine, std::size_t n,
                         const blas::EmitOptions& emit, int P, int Q);

/// Run a paper benchmark under `spec` through run_plan.
BenchResult run_with_spec(const ModelSpec& spec, const BenchConfig& cfg);

/// The run skeleton every entry point shares: builds the platform and the
/// runtime under `spec`, attaches the opt-in layers of `cfg`, runs the plan
/// `make_plan` builds on that runtime (its distribution phase first when
/// data-on-device, then emission and, on the host, coherency) and harvests
/// the result.  `meta` carries the routine/n/tile that name the run in
/// ledgers and flight dumps; lib, scenario and seed are filled in here.
BenchResult run_plan(const ModelSpec& spec, const RunConfig& cfg,
                     obs::LedgerMeta meta,
                     const std::function<RoutinePlan(rt::Runtime&)>& make_plan);

/// A LibraryModel entirely described by a ModelSpec.
class SpecModel : public LibraryModel {
 public:
  explicit SpecModel(ModelSpec spec) : spec_(std::move(spec)) {}
  std::string name() const override { return spec_.name; }
  bool supports(Blas3 r) const override;
  BenchResult run(const BenchConfig& cfg) override;
  /// The policy knobs, exposed for non-BLAS entry points (workloads).
  const ModelSpec& spec() const { return spec_; }

 protected:
  ModelSpec spec_;
};

}  // namespace xkb::baselines
