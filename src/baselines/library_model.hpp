// Policy-faithful models of the BLAS libraries the paper compares against
// (Section IV-D), all running on the same simulated platform so that, as in
// the paper, performance differences come only from scheduling and data
// management policies.
//
// | Library          | Placement              | Sources        | Extras |
// |------------------|------------------------|----------------|--------|
// | XKBlas           | owner-computes + WS    | topology-aware | optimistic D2D, lazy coherency |
// | cuBLAS-XT        | static round-robin     | host only      | synchronous per call, streams inputs (no cache) |
// | BLASX            | owner-computes + WS    | switch peer    | GEMM only, 2-level cache, OOM > 45k |
// | Chameleon Tile   | dmdas                  | first valid    | tile layout native |
// | Chameleon LAPACK | dmdas                  | first valid    | host layout conversions before/after |
// | cuBLAS-MG        | static 2D block cyclic | first valid    | GEMM only, distribute+collect in time |
// | Slate            | static 2D block cyclic | host only      | batched outer products, per-step sync |
// | DPLASMA          | static 2D block cyclic | first valid    | GEMM only |
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "runtime/data_manager.hpp"
#include "runtime/perf_model.hpp"
#include "topo/topology.hpp"
#include "trace/trace.hpp"
#include "util/flops.hpp"

namespace xkb::baselines {

/// What every run shares, whatever task graph it emits: the scenario, the
/// machine and cost model, and the opt-in layers.
struct RunConfig {
  /// Pre-place the operands on their block-cyclic homes before the
  /// measured phase (the paper's data-on-device scenario).
  bool data_on_device = false;
  topo::Topology topology = topo::Topology::dgx1();
  rt::PerfModel perf;
  std::size_t device_capacity = 32ull << 30;
  int kernel_streams = 2;
  /// Opt-in validation layer, forwarded to RuntimeOptions::check.  When
  /// enabled the result carries the checker verdict and event-stream hash.
  check::CheckConfig check;
  /// Opt-in observability layer (metrics registry, link probes, decision
  /// trace).  When enabled the result keeps the Observability instance,
  /// the run's trace and its end-of-run topology: the inputs of
  /// obs::build_report / build_ledger / to_chrome_json.
  obs::ObsConfig obs;
  /// Opt-in fault plan (xkb::fault).  Non-empty plans arm a deterministic
  /// Injector before the run; recovery statistics and injector counters
  /// land in BenchResult::fault_json.  A FaultError (retries exhausted,
  /// unrecoverable data loss, stuck progress) is reported as a failed-but-
  /// diagnosed run, like an OOM.
  fault::FaultPlan fault_plan;
};

/// A paper benchmark: one square BLAS-3 call, tiled.
struct BenchConfig : RunConfig {
  Blas3 routine = Blas3::kGemm;
  std::size_t n = 16384;      ///< square matrix dimension
  std::size_t tile = 2048;

  /// Reject nonsensical configurations (n/tile of zero, tile > n, no
  /// kernel streams) with an actionable std::invalid_argument instead of a
  /// division by zero or an empty task graph deep in the run.  Called by
  /// run_with_spec.
  void validate() const;
};

struct BenchResult {
  bool supported = true;
  bool failed = false;        ///< e.g. BLASX memory allocation error
  std::string error;
  double seconds = 0.0;       ///< end-to-end virtual time
  double tflops = 0.0;
  trace::Breakdown breakdown;  ///< per-op-class busy time
  std::vector<trace::Breakdown> per_gpu;
  rt::TransferStats transfers;
  std::size_t steals = 0;
  std::size_t tasks = 0;
  // Engine event counters for the whole run (distribution + measured
  // phases): total dispatched events incl. silent machinery, and the
  // observable subset (the event-stream length the hash covers).  Feeds the
  // BENCH_e2e.json events/sec trajectory.
  std::uint64_t events_processed = 0;
  std::uint64_t events_observable = 0;
  std::uint64_t events_peak_pending = 0;
  // Populated only when RunConfig::check.enabled was set.
  bool check_ok = true;
  std::size_t check_violations = 0;
  std::string check_report;
  std::uint64_t event_hash = 0;  ///< FNV-1a over the simulated event stream
  // Populated only when RunConfig::obs.enabled was set: the measurement
  // layer (registry finalized, run identity in ledger_meta()), the measured
  // phase's trace and the topology as the run left it (fault plans mutate
  // it).  Artifacts are built from these on request, e.g.
  // obs::build_ledger(trace, *topology, obs.get(), event_hash,
  //                   obs->ledger_meta()).
  std::shared_ptr<obs::Observability> obs;
  trace::Trace trace;
  std::optional<topo::Topology> topology;
  /// Flight-recorder dump (schema xkb.obs.flight/1): last-N observable
  /// events + decisions + fault marks with a ledger snapshot.  Written only
  /// when the run failed or the checker flagged a violation -- a clean run
  /// leaves it empty.
  std::string flight_json;
  // Populated only when BenchConfig::fault_plan was non-empty.
  std::size_t task_remaps = 0;   ///< tasks migrated off a failed device
  std::size_t task_replays = 0;  ///< producers re-run to rebuild lost tiles
  std::string fault_json;  ///< injector counters + runtime recovery stats
};

class LibraryModel {
 public:
  virtual ~LibraryModel() = default;
  virtual std::string name() const = 0;
  virtual bool supports(Blas3 r) const = 0;
  virtual BenchResult run(const BenchConfig& cfg) = 0;
};

/// All models in the paper's Fig. 5 order.
std::vector<std::unique_ptr<LibraryModel>> all_models();

/// The XKBlas variants of the Fig. 3 ablation.
std::unique_ptr<LibraryModel> make_xkblas(rt::HeuristicConfig heur,
                                          std::string suffix = "");
std::unique_ptr<LibraryModel> make_cublasxt();
std::unique_ptr<LibraryModel> make_blasx();
std::unique_ptr<LibraryModel> make_chameleon(bool tile_layout);
std::unique_ptr<LibraryModel> make_cublasmg();
std::unique_ptr<LibraryModel> make_slate();
std::unique_ptr<LibraryModel> make_dplasma();

}  // namespace xkb::baselines
