// service_bench -- seeded arrival driver for xkb::svc, the multi-tenant
// service mode.
//
//   service_bench [--soak-smoke | --degrade-gate] [options]
//
//   Replays an arrival trace (generated Poisson stream by default, or a
//   .svt file via --trace) into a Service over one shared dgx1 platform
//   and reports per-tenant latency percentiles, rejection / retry /
//   dead-letter counts and device utilization.  --json writes the
//   BENCH_service.json artifact (schema xkb.bench.service/2, with
//   obs::Provenance and a --append trajectory like perf_bench's): the
//   virtual-time goodput (virtual_goodput_jps) next to the host-time rate
//   the simulator sustained (host_jobs_per_sec).
//
//   Gates (all exit nonzero on failure, for ctest / CI):
//     --rerun         run the identical soak twice and require bit-identity
//                     (checker event hash + ledger bytes + stats digest)
//     --check         attach xkb::check; violations fail the run
//     --degrade-gate  kill a device and brown a link out mid-soak; every
//                     admitted job must still reach a terminal state, the
//                     dead device's tasks must have been re-queued, and the
//                     checker must stay clean
//
// Everything runs in virtual time from the trace's seed: two invocations
// with the same flags produce byte-identical artifacts except for the
// host_jobs_per_sec reading.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "runtime/runtime.hpp"
#include "svc/arrivals.hpp"
#include "svc/svc.hpp"
#include "topo/topology.hpp"
#include "workload/workload.hpp"

using namespace xkb;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: service_bench [preset] [options]\n"
      "presets:\n"
      "  --soak-smoke       small soak (120 jobs) with --check --rerun\n"
      "  --degrade-gate     1000-job soak with a mid-run device kill and\n"
      "                     link brownout; asserts graceful degradation\n"
      "options:\n"
      "  --jobs N           arrivals to generate (default 1000)\n"
      "  --seed S           trace seed (default 42)\n"
      "  --tenants K        generated tenant count (default 3)\n"
      "  --rate R           per-tenant Poisson rate, jobs/s (default 4000)\n"
      "  --policy P         fair|priority arbitration (default fair)\n"
      "  --max-running M    concurrent jobs on the runtime (default 4)\n"
      "  --queue-cap N      global admission queue bound (default 256)\n"
      "  --topo T           machine to serve on: tdl preset name or .tpo\n"
      "                     file (default dgx1)\n"
      "  --trace F          replay a .svt trace instead of generating\n"
      "  --emit-trace F     write the generated trace to F and exit\n"
      "  --fault-plan F     inject a FaultPlan file during the soak\n"
      "  --check            attach xkb::check (violations fail the run)\n"
      "  --rerun            gate bit-identical rerun (hash+ledger+stats)\n"
      "  --json F           write the BENCH artifact (xkb.bench.service/2)\n"
      "  --append           preserve F's existing trajectory points\n"
      "  --ledger F         write the obs run ledger (run_diff input)\n");
}

struct Cfg {
  std::size_t jobs = 1000;
  std::uint64_t seed = 42;
  int tenants = 3;
  double rate_hz = 4000.0;
  svc::Arbitration policy = svc::Arbitration::kFairShare;
  int max_running = 4;
  std::size_t global_queue_cap = 256;
  bool check = false;
  bool rerun = false;
  bool degrade_gate = false;
  std::string trace_path;
  std::string emit_trace_path;
  std::string fault_plan_path;
  std::string json_path;
  std::string ledger_path;
  /// Machine the service runs on: a tdl preset name or a .tpo file
  /// ("dgx1" keeps the historical platform and hashes).
  std::string topo = "dgx1";
  bool append = false;
  const char* mode = "soak";
};

/// The canonical tenant mix for generated soaks: an interactive tenant
/// with tight deadlines and top priority, a batch tier, and bulk
/// best-effort traffic that brownout sheds first.
std::vector<svc::TenantSpec> default_tenants(int k) {
  struct Row {
    const char* name;
    int priority;
    double share;
    double deadline;
  };
  static const Row rows[] = {
      {"interactive", 2, 3.0, 10e-3},
      {"batch", 1, 2.0, 0.0},
      {"bulk", 0, 1.0, 0.0},
  };
  std::vector<svc::TenantSpec> ts;
  for (int i = 0; i < k; ++i) {
    svc::TenantSpec t;
    if (i < 3) {
      t.name = rows[i].name;
      t.priority = rows[i].priority;
      t.share = rows[i].share;
      t.deadline = rows[i].deadline;
    } else {
      t.name = "bulk" + std::to_string(i - 1);
    }
    t.queue_cap = 64;
    t.max_in_system = 96;
    ts.push_back(std::move(t));
  }
  return ts;
}

struct TenantOut {
  svc::TenantSpec spec;
  svc::TenantStats stats;
  std::vector<double> latencies;  ///< finished - arrival, completed jobs only
};

struct RunOut {
  double span = 0.0;
  svc::ServiceStats stats;
  std::vector<TenantOut> tenants;
  std::size_t peak_queued = 0;
  std::size_t records = 0;
  std::vector<std::string> fault_notes;
  std::uint64_t tasks = 0;
  std::uint64_t task_remaps = 0;
  std::uint64_t task_replays = 0;
  std::uint64_t events = 0;
  std::uint64_t event_hash = 0;
  bool check_enabled = false;
  bool check_ok = true;
  std::size_t check_violations = 0;
  std::string check_report;
  std::string ledger_json;
  std::vector<double> util;  ///< per-GPU kernel-busy fraction of span
  double util_mean = 0.0;

  /// Deterministic digest of every counter the rerun gate compares
  /// (latency vectors included: they are derived from record times).
  std::string digest() const;
};

std::string RunOut::digest() const {
  std::ostringstream os;
  os.precision(17);
  os << span << "|" << stats.submitted << "," << stats.admitted << ","
     << stats.completed << "," << stats.rejected_queue_full << ","
     << stats.rejected_quota << "," << stats.rejected_brownout << ","
     << stats.expired << "," << stats.retries << "," << stats.dead_letters
     << "," << stats.deadline_miss << "," << stats.brownout_enters << ","
     << stats.brownout_exits << "," << stats.runtime_faults << ","
     << stats.aborted_attempts << "|" << peak_queued << "," << records << ","
     << tasks << "," << task_remaps << "," << task_replays << "," << events
     << "," << event_hash;
  for (const TenantOut& t : tenants) {
    os << "|" << t.stats.submitted << "," << t.stats.completed << ","
       << t.stats.dead_letters << "," << t.stats.retries;
    for (double l : t.latencies) os << ";" << l;
  }
  return os.str();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

RunOut run_soak(const Cfg& cfg, const svc::ArrivalTrace& trace,
                const fault::FaultPlan& plan) {
  RunOut out;

  rt::PerfModel perf;
  rt::PlatformOptions popt;
  popt.functional = false;
  popt.kernel_streams = 2;
  popt.device_capacity = 32ull << 30;
  rt::Platform plat(bench::parse_topo(cfg.topo), perf, popt);

  auto o = std::make_shared<obs::Observability>(plat.num_gpus());
  plat.set_obs(o.get());  // before the Runtime: it caches series pointers

  std::unique_ptr<fault::Injector> inj;
  if (!plan.empty()) {
    inj = std::make_unique<fault::Injector>(plan);
    plat.set_fault(inj.get());
  }

  rt::RuntimeOptions ropt;
  ropt.check.enabled = cfg.check;
  rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                      ropt);

  obs::LedgerMeta lm;
  lm.lib = "service";
  lm.routine = trace.name;
  lm.scenario = svc::to_string(cfg.policy);
  lm.seed = trace.seed;
  o->set_ledger_meta(lm);

  svc::ServiceOptions sopt;
  sopt.arbitration = cfg.policy;
  sopt.max_running = cfg.max_running;
  sopt.global_queue_cap = cfg.global_queue_cap;
  svc::Service service(runtime, sopt);
  for (const svc::TenantSpec& t : trace.tenants) service.add_tenant(t);

  // One graph per distinct spec string: jobs sharing a shape share the
  // immutable WorkloadGraph (each attempt still interns private handles).
  std::map<std::string, std::shared_ptr<const wl::WorkloadGraph>> graphs;
  for (const svc::Arrival& a : trace.arrivals) {
    auto& g = graphs[a.spec];
    if (!g)
      g = std::make_shared<const wl::WorkloadGraph>(
          wl::build(wl::WorkloadSpec::parse(a.spec)));
  }

  // Arrivals are ordinary observable events: they keep the engine's
  // observable_pending() signal high across idle gaps (the watchdog's
  // "work is still coming" proof) and replay in (time, seq) order.
  sim::Engine& eng = plat.engine();
  for (const svc::Arrival& a : trace.arrivals) {
    svc::JobSpec js;
    js.name = a.job;
    js.graph = graphs.at(a.spec);
    js.deadline = a.deadline;
    eng.schedule_at(a.t, [&service, t = a.tenant, js = std::move(js)] {
      service.submit(t, js);
    });
  }

  out.span = service.drain();
  out.stats = service.stats();
  out.peak_queued = service.peak_queued();
  out.records = service.records().size();
  out.fault_notes = service.fault_notes();
  for (int t = 0; t < service.num_tenants(); ++t) {
    TenantOut to;
    to.spec = service.tenant(t);
    to.stats = service.tenant_stats(t);
    out.tenants.push_back(std::move(to));
  }
  for (const svc::JobRecord& r : service.records())
    if (r.state == svc::JobState::kCompleted)
      out.tenants[static_cast<std::size_t>(r.tenant)].latencies.push_back(
          r.finished - r.arrival);

  out.tasks = runtime.tasks_completed();
  out.task_remaps = runtime.task_remaps();
  out.task_replays = runtime.task_replays();
  out.events = plat.engine().events_processed();
  if (const check::Checker* c = runtime.checker()) {
    out.check_enabled = true;
    out.check_ok = c->ok();
    out.check_violations = c->total_violations();
    out.check_report = c->report();
    out.event_hash = c->event_hash();
  }

  double util_sum = 0.0;
  for (int g = 0; g < plat.num_gpus(); ++g) {
    const double busy = plat.trace().breakdown(g).kernel;
    const double u = out.span > 0.0 ? busy / out.span : 0.0;
    out.util.push_back(u);
    util_sum += u;
  }
  out.util_mean = util_sum / static_cast<double>(plat.num_gpus());

  o->finalize_registry();
  out.ledger_json = obs::ledger_json(
      obs::build_ledger(plat.trace(), plat.topology(), o.get(),
                        out.event_hash, lm));
  return out;
}

// --- artifact ------------------------------------------------------------

double goodput(const RunOut& r) {
  return r.span > 0.0 ? static_cast<double>(r.stats.completed) / r.span
                      : 0.0;
}

util::JsonValue rejected_json(std::uint64_t queue_full, std::uint64_t quota,
                              std::uint64_t brownout) {
  return bench::object(
      {{"queue_full", queue_full}, {"quota", quota}, {"brownout", brownout}});
}

util::JsonValue tenant_json(const TenantOut& t) {
  const svc::TenantStats& s = t.stats;
  const double max = t.latencies.empty() ? 0.0
                                         : *std::max_element(
                                               t.latencies.begin(),
                                               t.latencies.end());
  return bench::object(
      {{"name", t.spec.name}, {"priority", t.spec.priority},
       {"share", t.spec.share}, {"submitted", s.submitted},
       {"admitted", s.admitted}, {"completed", s.completed},
       {"rejected", rejected_json(s.rejected_queue_full, s.rejected_quota,
                                  s.rejected_brownout)},
       {"expired", s.expired}, {"retries", s.retries},
       {"dead_letters", s.dead_letters}, {"deadline_miss", s.deadline_miss},
       {"latency_ms",
        bench::object({{"count", t.latencies.size()},
                       {"p50", 1e3 * percentile(t.latencies, 50)},
                       {"p95", 1e3 * percentile(t.latencies, 95)},
                       {"p99", 1e3 * percentile(t.latencies, 99)},
                       {"max", 1e3 * max}})}});
}

/// The BENCH_service.json body.  `host_s` is the host wall time of the
/// soak; `rerun_identical` is -1 when no rerun was asked for.
util::JsonValue service_json(const Cfg& cfg, const svc::ArrivalTrace& trace,
                             const RunOut& r, double host_s,
                             int rerun_identical) {
  const obs::Provenance prov =
      obs::Provenance::current("xkb.bench.service", 2, trace.seed);
  const double host_jps =
      host_s > 0.0 ? static_cast<double>(r.stats.completed) / host_s : 0.0;
  std::vector<double> all;
  for (const TenantOut& t : r.tenants)
    all.insert(all.end(), t.latencies.begin(), t.latencies.end());
  const svc::ServiceStats& s = r.stats;
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(r.event_hash));
  util::JsonArray per_gpu, tenants;
  for (double u : r.util) per_gpu.emplace_back(u);
  for (const TenantOut& t : r.tenants) tenants.push_back(tenant_json(t));
  return bench::object(
      {{"schema", prov.tag()},
       {"provenance", bench::provenance(prov)},
       {"trajectory",
        bench::trajectory(cfg.json_path, cfg.append, prov, cfg.mode,
                          {{"virtual_goodput_jps", goodput(r)},
                           {"host_jobs_per_sec", host_jps},
                           {"p50_ms", 1e3 * percentile(all, 50)},
                           {"p99_ms", 1e3 * percentile(all, 99)}},
                          "virtual_goodput_jps")},
       {"mode", cfg.mode},
       {"policy", svc::to_string(cfg.policy)},
       {"config", bench::object({{"jobs", trace.arrivals.size()},
                                 {"seed", trace.seed},
                                 {"tenants", trace.tenants.size()},
                                 {"rate_hz", cfg.rate_hz},
                                 {"max_running", cfg.max_running},
                                 {"global_queue_cap", cfg.global_queue_cap}})},
       {"soak",
        bench::object(
            {{"span_s", r.span},
             {"virtual_goodput_jps", goodput(r)},
             {"host_jobs_per_sec", host_jps},
             {"submitted", s.submitted},
             {"admitted", s.admitted},
             {"completed", s.completed},
             {"rejected", rejected_json(s.rejected_queue_full,
                                        s.rejected_quota,
                                        s.rejected_brownout)},
             {"expired", s.expired},
             {"retries", s.retries},
             {"dead_letters", s.dead_letters},
             {"deadline_miss", s.deadline_miss},
             {"brownout", bench::object({{"enters", s.brownout_enters},
                                         {"exits", s.brownout_exits}})},
             {"runtime_faults", s.runtime_faults},
             {"aborted_attempts", s.aborted_attempts},
             {"peak_queued", r.peak_queued},
             {"tasks", r.tasks},
             {"task_remaps", r.task_remaps},
             {"task_replays", r.task_replays},
             {"events", r.events},
             {"event_hash", std::string(hash)},
             {"check", bench::object({{"enabled", r.check_enabled},
                                      {"ok", r.check_ok},
                                      {"violations", r.check_violations}})},
             {"rerun_identical", rerun_identical < 0
                                     ? util::JsonValue()
                                     : util::JsonValue(rerun_identical == 1)},
             {"utilization",
              bench::object({{"mean", r.util_mean},
                             {"per_gpu", std::move(per_gpu)}})}})},
       {"tenants", std::move(tenants)}});
}

void print_summary(const Cfg& cfg, const svc::ArrivalTrace& trace,
                   const RunOut& r, double host_s) {
  const svc::ServiceStats& s = r.stats;
  std::printf(
      "service_bench: %zu arrivals, %zu tenants, policy=%s, seed=%llu\n",
      trace.arrivals.size(), trace.tenants.size(), svc::to_string(cfg.policy),
      static_cast<unsigned long long>(trace.seed));
  std::printf(
      "  span %.3f ms  |  %.0f jobs/s virtual  |  util(mean) %.1f%%  |  "
      "peak queue %zu  |  host %.3f s\n",
      1e3 * r.span, goodput(r), 100.0 * r.util_mean, r.peak_queued, host_s);
  std::printf(
      "  admitted %llu/%llu  completed %llu  dead-letters %llu  retries %llu "
      " expired %llu\n",
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.dead_letters),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.expired));
  std::printf(
      "  rejected: queue-full %llu  quota %llu  brownout %llu  "
      "(brownout enters/exits %llu/%llu)\n",
      static_cast<unsigned long long>(s.rejected_queue_full),
      static_cast<unsigned long long>(s.rejected_quota),
      static_cast<unsigned long long>(s.rejected_brownout),
      static_cast<unsigned long long>(s.brownout_enters),
      static_cast<unsigned long long>(s.brownout_exits));
  if (r.task_remaps || r.task_replays || s.runtime_faults)
    std::printf(
        "  degradation: task remaps %llu  replays %llu  absorbed faults "
        "%llu  aborted attempts %llu\n",
        static_cast<unsigned long long>(r.task_remaps),
        static_cast<unsigned long long>(r.task_replays),
        static_cast<unsigned long long>(s.runtime_faults),
        static_cast<unsigned long long>(s.aborted_attempts));
  for (const TenantOut& t : r.tenants)
    std::printf(
        "  %-12s prio %d  done %5llu/%-5llu  p50 %7.3f ms  p99 %7.3f ms  "
        "dead %llu\n",
        t.spec.name.c_str(), t.spec.priority,
        static_cast<unsigned long long>(t.stats.completed),
        static_cast<unsigned long long>(t.stats.submitted),
        1e3 * percentile(t.latencies, 50), 1e3 * percentile(t.latencies, 99),
        static_cast<unsigned long long>(t.stats.dead_letters));
  if (r.check_enabled)
    std::printf("  check: %s (%zu violations)\n", r.check_ok ? "ok" : "FAIL",
                r.check_violations);
}

int fail(const char* what) {
  std::fprintf(stderr, "service_bench: DEGRADE GATE FAILED: %s\n", what);
  return 7;
}

}  // namespace

int main(int argc, char** argv) {
  Cfg cfg;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--soak-smoke") {
        cfg.jobs = 120;
        cfg.check = true;
        cfg.rerun = true;
        cfg.mode = "smoke";
      } else if (arg == "--degrade-gate") {
        cfg.degrade_gate = true;
        cfg.check = true;
        cfg.mode = "degrade";
      } else if (arg == "--jobs") {
        cfg.jobs = bench::parse_size(arg, next());
      } else if (arg == "--seed") {
        cfg.seed = bench::parse_size(arg, next());
      } else if (arg == "--tenants") {
        cfg.tenants = bench::parse_int(arg, next());
      } else if (arg == "--rate") {
        cfg.rate_hz = bench::parse_double(arg, next());
      } else if (arg == "--policy") {
        cfg.policy = svc::arbitration_from(next());
      } else if (arg == "--max-running") {
        cfg.max_running = bench::parse_int(arg, next());
      } else if (arg == "--queue-cap") {
        cfg.global_queue_cap = bench::parse_size(arg, next());
      } else if (arg == "--topo") {
        cfg.topo = next();
      } else if (arg == "--trace") {
        cfg.trace_path = next();
      } else if (arg == "--emit-trace") {
        cfg.emit_trace_path = next();
      } else if (arg == "--fault-plan") {
        cfg.fault_plan_path = next();
      } else if (arg == "--check") {
        cfg.check = true;
      } else if (arg == "--rerun") {
        cfg.rerun = true;
      } else if (arg == "--json") {
        cfg.json_path = next();
      } else if (arg == "--append") {
        cfg.append = true;
      } else if (arg == "--ledger") {
        cfg.ledger_path = next();
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::fprintf(stderr, "service_bench: unknown flag '%s'\n",
                     arg.c_str());
        usage();
        return 2;
      }
    }
    if (cfg.tenants < 1 || cfg.jobs == 0) {
      usage();
      return 2;
    }

    svc::ArrivalTrace trace =
        cfg.trace_path.empty()
            ? svc::poisson_trace(cfg.seed, default_tenants(cfg.tenants),
                                 cfg.rate_hz, cfg.jobs)
            : svc::ArrivalTrace::parse_file(cfg.trace_path);

    if (!cfg.emit_trace_path.empty()) {
      std::ofstream f(cfg.emit_trace_path);
      if (!f) {
        std::fprintf(stderr, "service_bench: cannot write '%s'\n",
                     cfg.emit_trace_path.c_str());
        return 2;
      }
      f << trace.to_text();
      std::printf("service_bench: wrote %zu arrivals to %s\n",
                  trace.arrivals.size(), cfg.emit_trace_path.c_str());
      return 0;
    }

    fault::FaultPlan plan;
    if (!cfg.fault_plan_path.empty())
      plan = fault::FaultPlan::parse_file(cfg.fault_plan_path);
    if (cfg.degrade_gate) {
      // Mid-soak whole-GPU loss plus a deep brownout on a busy link,
      // timed off the trace itself so the plan follows the stream.
      const double horizon =
          trace.arrivals.empty() ? 1.0 : trace.arrivals.back().t;
      fault::FaultEvent kill;
      kill.kind = fault::FaultKind::kDeviceFail;
      kill.t = 0.4 * horizon;
      kill.a = 1;
      plan.events.push_back(kill);
      fault::FaultEvent brown;
      brown.kind = fault::FaultKind::kBrownout;
      brown.t = 0.5 * horizon;
      brown.a = 0;
      brown.b = 2;
      brown.fraction = 0.1;
      brown.duration = 0.2 * horizon;
      plan.events.push_back(brown);
      plan.seed = trace.seed;
    }

    RunOut r;
    const double host_s =
        bench::wall_of([&] { r = run_soak(cfg, trace, plan); });
    int rerun_identical = -1;
    if (cfg.rerun) {
      const RunOut r2 = run_soak(cfg, trace, plan);
      rerun_identical = (r.digest() == r2.digest() &&
                         r.ledger_json == r2.ledger_json &&
                         r.event_hash == r2.event_hash)
                            ? 1
                            : 0;
    }

    print_summary(cfg, trace, r, host_s);

    if (!cfg.ledger_path.empty()) {
      std::ofstream f(cfg.ledger_path);
      if (!f) {
        std::fprintf(stderr, "service_bench: cannot write '%s'\n",
                     cfg.ledger_path.c_str());
        return 2;
      }
      f << r.ledger_json;
    }
    if (!cfg.json_path.empty() &&
        !bench::write_artifact(
            cfg.json_path,
            service_json(cfg, trace, r, host_s, rerun_identical)))
      return 2;

    if (rerun_identical == 0) {
      std::fprintf(stderr,
                   "service_bench: RERUN MISMATCH: the seeded soak is not "
                   "bit-identical\n");
      return 3;
    }
    if (r.check_enabled && (!r.check_ok || r.check_violations != 0)) {
      std::fprintf(stderr, "service_bench: CHECK FAILED:\n%s\n",
                   r.check_report.c_str());
      return 4;
    }
    if (cfg.degrade_gate) {
      // Graceful-degradation contract: the kill and brownout may shed or
      // delay work, but every admitted job still reaches a terminal state,
      // the dead device's resident tasks were re-queued elsewhere, and the
      // protocol stayed clean (checked above).
      if (r.stats.completed == 0) return fail("no jobs completed");
      if (r.stats.completed + r.stats.dead_letters != r.records)
        return fail("a job ended in a non-terminal state");
      // Re-queue evidence comes in two shapes: the runtime migrated the
      // dead device's tasks in place (task_remaps), or the failure unwound
      // the dispatch loop and the service failed the in-flight attempts
      // into the retry ladder (absorbed faults + aborted attempts).
      const bool requeued =
          r.task_remaps > 0 ||
          (r.stats.runtime_faults > 0 && r.stats.aborted_attempts > 0);
      if (!requeued)
        return fail("device kill re-queued no tasks (kill before load?)");
      std::printf(
          "degrade gate: ok (remaps %llu, aborted attempts %llu, completed "
          "%llu, dead-letters %llu)\n",
          static_cast<unsigned long long>(r.task_remaps),
          static_cast<unsigned long long>(r.stats.aborted_attempts),
          static_cast<unsigned long long>(r.stats.completed),
          static_cast<unsigned long long>(r.stats.dead_letters));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
