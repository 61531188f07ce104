#include "baselines/library_model.hpp"

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "baselines/common.hpp"
#include "fault/injector.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/ledger.hpp"

namespace xkb::baselines {

namespace {

template <typename T>
void coherent_matrix(rt::Runtime& runtime, MatrixView<const T> m,
                     std::size_t ts) {
  for (std::size_t i = 0; i < m.m; i += ts)
    for (std::size_t j = 0; j < m.n; j += ts) {
      mem::DataHandle* h = blas::detail::tile_handle(
          runtime, m, i, j, std::min(ts, m.m - i), std::min(ts, m.n - j));
      runtime.coherent_async(h);
    }
}

template <typename T>
void distribute_matrix(rt::Runtime& runtime, MatrixView<const T> m,
                       std::size_t ts, int P, int Q) {
  for (std::size_t i = 0; i < m.m; i += ts)
    for (std::size_t j = 0; j < m.n; j += ts) {
      mem::DataHandle* h = blas::detail::tile_handle(
          runtime, m, i, j, std::min(ts, m.m - i), std::min(ts, m.n - j));
      const int dev = static_cast<int>((i / ts) % P) * Q +
                      static_cast<int>((j / ts) % Q);
      h->home_device = dev;
      rt::TaskDesc d;
      d.label = "dist";
      d.accesses.push_back({h, rt::Access::kR});
      d.forced_device = dev;
      runtime.submit(std::move(d));
    }
}

/// Derive the data movement of `plan` from its routine's operands, in
/// distribution order (A, B, C); the last one is the output the host gets
/// back.  Complex operands also scale the flop count to real arithmetic.
template <typename T>
void bind_operands(RoutinePlan& plan, rt::Runtime& rt, std::size_t ts, int P,
                   int Q, std::initializer_list<MatrixView<const T>> list) {
  std::vector<MatrixView<const T>> ops(list);
  const MatrixView<const T> out = ops.back();
  const double bytes = static_cast<double>(out.m) * out.n * sizeof(T);
  plan.input_bytes = static_cast<double>(ops.size()) * bytes;
  plan.output_bytes = bytes;
  if constexpr (!std::is_same_v<T, double>) plan.flops *= 4.0;
  plan.distribute = [&rt, ops = std::move(ops), ts, P, Q] {
    for (const MatrixView<const T>& m : ops) distribute_matrix(rt, m, ts, P, Q);
  };
  plan.coherent = [&rt, out, ts] { coherent_matrix(rt, out, ts); };
}

}  // namespace

RoutinePlan plan_routine(rt::Runtime& runtime, Blas3 routine, std::size_t n,
                         const blas::EmitOptions& emit, int P, int Q) {
  using Z = std::complex<double>;
  // One address slot per operand role, whatever the routine: real A, B, C
  // in slots 0-2, complex ones in 3-5.
  const SymbolicMatrix<double> A(n, n, 0), B(n, n, 1), C(n, n, 2);
  const SymbolicMatrix<Z> ZA(n, n, 3), ZB(n, n, 4), ZC(n, n, 5);
  auto& rt = runtime;
  const std::size_t ts = emit.tile;
  RoutinePlan plan;
  plan.flops = routine_flops(routine, static_cast<double>(n));
  switch (routine) {
    case Blas3::kGemm:
      plan.emit = [&rt, A, B, C, emit] {
        blas::tiled_gemm(rt, Op::NoTrans, Op::NoTrans, 1.0, A.cview(),
                         B.cview(), 1.0, C.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {A.cview(), B.cview(), C.cview()});
      break;
    case Blas3::kSymm:
      plan.emit = [&rt, A, B, C, emit] {
        blas::tiled_symm(rt, Side::Left, Uplo::Lower, 1.0, A.cview(),
                         B.cview(), 1.0, C.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {A.cview(), B.cview(), C.cview()});
      break;
    case Blas3::kSyrk:
      plan.emit = [&rt, A, C, emit] {
        blas::tiled_syrk(rt, Uplo::Lower, Op::NoTrans, 1.0, A.cview(), 1.0,
                         C.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {A.cview(), C.cview()});
      break;
    case Blas3::kSyr2k:
      plan.emit = [&rt, A, B, C, emit] {
        blas::tiled_syr2k(rt, Uplo::Lower, Op::NoTrans, 1.0, A.cview(),
                          B.cview(), 1.0, C.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {A.cview(), B.cview(), C.cview()});
      break;
    case Blas3::kTrmm:
      plan.emit = [&rt, A, B, emit] {
        blas::tiled_trmm(rt, Side::Left, Uplo::Lower, Op::NoTrans,
                         Diag::NonUnit, 1.0, A.cview(), B.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {A.cview(), B.cview()});
      break;
    case Blas3::kTrsm:
      plan.emit = [&rt, A, B, emit] {
        blas::tiled_trsm(rt, Side::Left, Uplo::Lower, Op::NoTrans,
                         Diag::NonUnit, 1.0, A.cview(), B.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {A.cview(), B.cview()});
      break;
    case Blas3::kHemm:
      plan.emit = [&rt, ZA, ZB, ZC, emit] {
        blas::tiled_hemm(rt, Side::Left, Uplo::Lower, Z{1.0}, ZA.cview(),
                         ZB.cview(), Z{1.0}, ZC.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {ZA.cview(), ZB.cview(), ZC.cview()});
      break;
    case Blas3::kHerk:
      plan.emit = [&rt, ZA, ZC, emit] {
        blas::tiled_herk(rt, Uplo::Lower, Op::NoTrans, 1.0, ZA.cview(), 1.0,
                         ZC.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {ZA.cview(), ZC.cview()});
      break;
    case Blas3::kHer2k:
      plan.emit = [&rt, ZA, ZB, ZC, emit] {
        blas::tiled_her2k(rt, Uplo::Lower, Op::NoTrans, Z{1.0}, ZA.cview(),
                          ZB.cview(), 1.0, ZC.view(), emit);
      };
      bind_operands(plan, rt, ts, P, Q, {ZA.cview(), ZB.cview(), ZC.cview()});
      break;
  }
  return plan;
}

bool SpecModel::supports(Blas3 r) const {
  if (spec_.routines.empty()) return true;
  return std::find(spec_.routines.begin(), spec_.routines.end(), r) !=
         spec_.routines.end();
}

BenchResult SpecModel::run(const BenchConfig& cfg) {
  if (!supports(cfg.routine)) {
    BenchResult res;
    res.supported = false;
    return res;
  }
  return run_with_spec(spec_, cfg);
}

void BenchConfig::validate() const {
  if (n == 0)
    throw std::invalid_argument(
        "BenchConfig.n == 0: an empty matrix has no task graph to run");
  if (tile == 0)
    throw std::invalid_argument(
        "BenchConfig.tile == 0: tiling by zero divides the matrix into "
        "nothing");
  if (tile > n)
    throw std::invalid_argument(
        "BenchConfig.tile (" + std::to_string(tile) + ") exceeds n (" +
        std::to_string(n) + "): the tile grid would be empty");
  if (kernel_streams < 1)
    throw std::invalid_argument(
        "BenchConfig.kernel_streams < 1: a device needs at least one "
        "stream to execute kernels");
  if (device_capacity == 0)
    throw std::invalid_argument(
        "BenchConfig.device_capacity == 0: no replica could ever be "
        "allocated");
}

BenchResult run_with_spec(const ModelSpec& spec, const BenchConfig& cfg) {
  cfg.validate();
  if (cfg.n > spec.max_n) {
    BenchResult res;
    res.failed = true;
    res.error = "memory allocation error";
    return res;
  }
  obs::LedgerMeta meta;
  meta.routine = blas3_name(cfg.routine);
  meta.n = cfg.n;
  meta.tile = cfg.tile;
  return run_plan(spec, cfg, std::move(meta), [&](rt::Runtime& runtime) {
    blas::EmitOptions emit;
    emit.tile = cfg.tile;
    emit.attach_functional = false;
    emit.flush_outputs_each_task = spec.flush_outputs_each_task;
    auto [P, Q] = blas::default_grid(runtime.platform().num_gpus());
    auto bc = [P = P, Q = Q](std::size_t i, std::size_t j) {
      return static_cast<int>(i % static_cast<std::size_t>(P)) * Q +
             static_cast<int>(j % static_cast<std::size_t>(Q));
    };
    if (spec.static_block_cyclic)
      emit.force_place = bc;
    else
      emit.home = bc;
    return plan_routine(runtime, cfg.routine, cfg.n, emit, P, Q);
  });
}

BenchResult run_plan(
    const ModelSpec& spec, const RunConfig& cfg, obs::LedgerMeta meta,
    const std::function<RoutinePlan(rt::Runtime&)>& make_plan) {
  BenchResult res;
  rt::PerfModel perf = cfg.perf;
  perf.peak_flops_dp *= spec.peak_scale;

  rt::PlatformOptions popt;
  popt.functional = false;
  popt.kernel_streams = cfg.kernel_streams;
  popt.device_capacity = cfg.device_capacity;
  popt.eviction = spec.eviction;
  rt::Platform plat(cfg.topology, perf, popt);

  std::shared_ptr<obs::Observability> o;
  if (cfg.obs.enabled) {
    o = std::make_shared<obs::Observability>(plat.num_gpus());
    plat.set_obs(o.get());  // before the Runtime: it caches series pointers
  }

  std::unique_ptr<fault::Injector> inj;
  if (!cfg.fault_plan.empty()) {
    inj = std::make_unique<fault::Injector>(cfg.fault_plan);
    // Before the Runtime: its constructor binds the device-fail hook and
    // arms the plan's silent events against the engine.
    plat.set_fault(inj.get());
  }

  rt::RuntimeOptions ropt;
  ropt.heuristics = spec.heur;
  ropt.drop_inputs_after_use = spec.drop_inputs;
  ropt.task_overhead = spec.task_overhead;
  ropt.prepare_window = spec.prepare_window;
  ropt.check = cfg.check;
  std::unique_ptr<rt::Scheduler> sched;
  if (spec.dmdas)
    sched = std::make_unique<rt::DmdasScheduler>();
  else
    sched = std::make_unique<rt::OwnerComputesScheduler>(spec.stealing);
  rt::Runtime runtime(plat, std::move(sched), ropt);

  RoutinePlan plan = make_plan(runtime);

  meta.lib = spec.name;
  meta.scenario = cfg.data_on_device ? "data-on-device" : "data-on-host";
  meta.seed = cfg.fault_plan.seed;
  // Register the run identity so a watchdog-stall dump composed inside the
  // runtime still names the lib/routine.
  if (o) o->set_ledger_meta(meta);

  // Why the run needs a flight-recorder dump; empty when it does not.
  std::string dump_reason;
  try {
    double t0 = 0.0;
    if (cfg.data_on_device) {
      plan.distribute();
      // run() reports the last *observable* instant: pending silent fault
      // events must not inflate the distribution phase's end time.
      t0 = runtime.run();
      plat.trace().clear();
      if (o) o->clear();  // observe only the measured (compute) phase
    }
    plan.emit();
    if (spec.coherent_at_end && !cfg.data_on_device) plan.coherent();
    const double t1 = runtime.run();
    double seconds = t1 - t0;
    seconds += spec.call_overhead;
    if (spec.lapack_conversion)
      seconds += (plan.input_bytes + plan.output_bytes) / perf.host_conv_bw;
    res.seconds = seconds;
    res.tflops = plan.flops / seconds / 1e12;

    res.breakdown = plat.trace().breakdown();
    res.per_gpu = plat.trace().breakdowns(plat.num_gpus());
    res.transfers = runtime.data_manager().stats();
    res.steals = runtime.steals();
    res.tasks = runtime.tasks_completed();
    res.events_processed = plat.engine().events_processed();
    res.events_observable = plat.engine().observable_processed();
    res.events_peak_pending = plat.engine().peak_pending();
    if (inj) {
      res.task_remaps = runtime.task_remaps();
      res.task_replays = runtime.task_replays();
      const rt::TransferStats& ts = res.transfers;
      std::ostringstream js;
      js << "{\"injector\":" << inj->counters_json()
         << ",\"unconsumed_xfail\":" << inj->unconsumed_transfer_faults()
         << ",\"recovery\":{\"transfer_aborts\":" << ts.transfer_aborts
         << ",\"transfer_retries\":" << ts.transfer_retries
         << ",\"waiter_replans\":" << ts.waiter_replans
         << ",\"task_remaps\":" << res.task_remaps
         << ",\"task_replays\":" << res.task_replays << "}}";
      res.fault_json = js.str();
    }
    if (const check::Checker* c = runtime.checker()) {
      res.check_ok = c->ok();
      res.check_violations = c->total_violations();
      res.check_report = c->report();
      res.event_hash = c->event_hash();
    }
    if (!res.check_ok) dump_reason = "checker-violation";
  } catch (const mem::OutOfDeviceMemory& e) {
    res.failed = true;
    res.error = e.what();
    dump_reason = std::string("oom: ") + e.what();
  } catch (const fault::FaultError& e) {
    // Failed-but-diagnosed: the recovery machinery hit its documented
    // limits (retries exhausted, unrecoverable dirty loss, stuck run).
    res.failed = true;
    res.error = e.what();
    res.task_remaps = runtime.task_remaps();
    res.task_replays = runtime.task_replays();
    dump_reason = std::string("fault: ") + e.what();
  }

  if (o) {
    o->finalize_registry();
    // Runtime::on_stuck stashes its own dump (with the pre-stall ledger
    // snapshot) before the StuckProgress throw; "first dump wins", so this
    // only fills in for failures that bypassed it (OOM, retries exhausted,
    // data loss, checker violations seen after the run).
    if (!dump_reason.empty()) {
      if (o->flight_dump().empty())
        o->set_flight_dump(obs::flight_dump_json(
            *o, dump_reason,
            obs::ledger_json(obs::build_ledger(plat.trace(), plat.topology(),
                                               o.get(), 0, meta))));
      res.flight_json = o->flight_dump();
    }
    // Keep the artifact inputs past the Platform's lifetime; the retained
    // instance must not point into it.
    res.trace = std::move(plat.trace());
    res.topology = plat.topology();
    o->set_trace(nullptr);
    res.obs = std::move(o);
  }
  return res;
}

std::vector<std::unique_ptr<LibraryModel>> all_models() {
  std::vector<std::unique_ptr<LibraryModel>> v;
  v.push_back(make_blasx());
  v.push_back(make_chameleon(/*tile_layout=*/false));  // Chameleon LAPACK
  v.push_back(make_chameleon(/*tile_layout=*/true));   // Chameleon Tile
  v.push_back(make_cublasmg());
  v.push_back(make_cublasxt());
  v.push_back(make_dplasma());
  v.push_back(make_slate());
  v.push_back(make_xkblas(rt::HeuristicConfig::xkblas()));
  return v;
}

}  // namespace xkb::baselines
