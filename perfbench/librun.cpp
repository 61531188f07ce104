#include "librun.hpp"

namespace perfbench {

namespace xb = xkb::baselines;
namespace rt = xkb::rt;

namespace {

rt::PlatformOptions platform_options(const xb::ModelSpec& spec,
                                     const xb::BenchConfig& cfg) {
  rt::PlatformOptions popt;
  popt.functional = false;
  popt.kernel_streams = cfg.kernel_streams;
  popt.device_capacity = cfg.device_capacity;
  popt.eviction = spec.eviction;
  return popt;
}

xkb::rt::PerfModel scaled_perf(const xb::ModelSpec& spec,
                               const xb::BenchConfig& cfg) {
  rt::PerfModel perf = cfg.perf;
  perf.peak_flops_dp *= spec.peak_scale;
  return perf;
}

// The obs layer must be attached before the Runtime is built: the runtime
// caches its series pointers at construction.
std::unique_ptr<xkb::obs::Observability> attach_obs(rt::Platform& plat,
                                                    bool enabled) {
  if (!enabled) return nullptr;
  auto o = std::make_unique<xkb::obs::Observability>(plat.num_gpus());
  plat.set_obs(o.get());
  return o;
}

rt::RuntimeOptions runtime_options(const xb::ModelSpec& spec) {
  rt::RuntimeOptions ropt;
  ropt.heuristics = spec.heur;
  ropt.drop_inputs_after_use = spec.drop_inputs;
  ropt.task_overhead = spec.task_overhead;
  ropt.prepare_window = spec.prepare_window;
  return ropt;
}

std::unique_ptr<rt::Scheduler> make_scheduler(const xb::ModelSpec& spec) {
  if (spec.dmdas) return std::make_unique<rt::DmdasScheduler>();
  return std::make_unique<rt::OwnerComputesScheduler>(spec.stealing);
}

}  // namespace

LibRun::LibRun(const xb::ModelSpec& spec, const xb::BenchConfig& cfg)
    : spec_(spec),
      cfg_(cfg),
      plat_(cfg.topology, scaled_perf(spec, cfg), platform_options(spec, cfg)),
      obs_(attach_obs(plat_, cfg.obs.enabled)),
      runtime_(plat_, make_scheduler(spec), runtime_options(spec)) {
  cfg_.validate();
  hash_events(plat_.engine(), hash_);

  xkb::blas::EmitOptions emit;
  emit.tile = cfg.tile;
  emit.attach_functional = false;
  emit.flush_outputs_each_task = spec.flush_outputs_each_task;
  const auto [P, Q] = xkb::blas::default_grid(plat_.num_gpus());
  auto bc = [P = P, Q = Q](std::size_t i, std::size_t j) {
    return static_cast<int>(i % static_cast<std::size_t>(P)) * Q +
           static_cast<int>(j % static_cast<std::size_t>(Q));
  };
  if (spec.static_block_cyclic)
    emit.force_place = bc;
  else
    emit.home = bc;
  plan_ = xb::plan_routine(runtime_, cfg.routine, cfg.n, emit, P, Q);

  if (cfg.data_on_device) {
    plan_.distribute();  // the compute graph is emitted after distribution
  } else {
    plan_.emit();
    if (spec.coherent_at_end) plan_.coherent();
  }
}

double LibRun::run() {
  double t0 = 0.0;
  if (cfg_.data_on_device) {
    t0 = runtime_.run();
    plat_.trace().clear();
    if (obs_) obs_->clear();  // observe only the measured (compute) phase
    plan_.emit();
  }
  double seconds = runtime_.run() - t0 + spec_.call_overhead;
  if (spec_.lapack_conversion)
    seconds += (plan_.input_bytes + plan_.output_bytes) /
               plat_.perf().host_conv_bw;
  return seconds;
}

}  // namespace perfbench
