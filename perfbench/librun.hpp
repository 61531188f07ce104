// One library-model run, split the way baselines::run_with_spec runs it
// into its set-up calls (Platform and Runtime construction, task-graph
// emission) and its timed half (Runtime::run), so the benchmark can time the
// two apart.  The virtual result equals run_with_spec's for the same spec
// and config; paper_dgx1 checks that once per process.
#pragma once

#include <cstdint>
#include <memory>

#include "baselines/common.hpp"
#include "baselines/library_model.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

class LibRun {
 public:
  /// Set-up: builds the platform (with an obs layer when cfg.obs.enabled)
  /// and the runtime, then emits the task graph.
  LibRun(const xkb::baselines::ModelSpec& spec,
         const xkb::baselines::BenchConfig& cfg);
  LibRun(const LibRun&) = delete;
  LibRun& operator=(const LibRun&) = delete;

  /// Timed half: drains the simulation; returns the virtual makespan with
  /// run_with_spec's per-call and layout-conversion terms.
  double run();

  xkb::rt::Platform& platform() { return plat_; }
  xkb::rt::Runtime& runtime() { return runtime_; }
  xkb::obs::Observability* obs() { return obs_.get(); }
  double flops() const { return plan_.flops; }
  /// FNV-1a over the observable event stream (time, ordinal).
  std::uint64_t event_hash() const { return hash_; }

 private:
  xkb::baselines::ModelSpec spec_;
  xkb::baselines::BenchConfig cfg_;
  xkb::rt::Platform plat_;
  std::unique_ptr<xkb::obs::Observability> obs_;
  xkb::rt::Runtime runtime_;
  xkb::baselines::RoutinePlan plan_;
  std::uint64_t hash_ = kFnvBasis;
};

}  // namespace perfbench
