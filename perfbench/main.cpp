// xkb_perfbench: the repository benchmark, single-threaded.
//
//   xkb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one untimed warm-up repetition of the workload, then timed
// repetitions until S seconds have passed, and checks that every
// repetition's event hashes, virtual makespans and stats digests equal the
// warm-up's.  With --trace 0 it reports the end-to-end metrics of the
// fastest timed repetition; with --trace 1 it alternates untraced and
// traced repetitions and reports the medians of the traced ones' per-layer
// metrics.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding exactly BENCHMARK.json's metrics of that mode, which every
// workload reports; metrics that apply to one workload only are printed in
// the table above it.  A failed operation makes the exit code 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/selfprof.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Where a metric is reported.  The end-to-end and per-layer metrics are
// BENCHMARK.json's: every workload reports every one of them, the former
// with --trace 0 and the latter with --trace 1.  Workload metrics apply to
// one workload only; they are printed in the table, not in the result line.
enum class Scope { kEndToEnd, kPerLayer, kWorkload };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* kind;  ///< "host", "virtual" or "count"
  Scope scope;
};

constexpr Scope E2E = Scope::kEndToEnd;
constexpr Scope LAYER = Scope::kPerLayer;
constexpr Scope WL = Scope::kWorkload;

// Units and directions; BENCHMARK.json carries the same values.
const MetricDef kMetrics[] = {
    {"setup_s", "s", "lower", "host", E2E},
    {"wall_s", "s", "lower", "host", E2E},
    {"sim_events_per_s", "events/s", "higher", "host", E2E},
    {"peak_rss_mb", "MB", "lower", "host", E2E},
    {"virtual_tflops", "TFlop/s", "higher", "virtual", E2E},
    {"heuristic_speedup", "x", "higher", "virtual", WL},
    {"svc_goodput_jps", "jobs/s", "higher", "virtual", WL},
    {"svc_slo_frac", "fraction", "higher", "virtual", WL},
    {"svc_max_rate_jps", "jobs/s", "higher", "virtual", WL},

    {"sim.events", "count", "lower", "count", LAYER},
    {"sim.observable_events", "count", "lower", "count", LAYER},
    {"sim.peak_pending", "count", "lower", "count", LAYER},
    {"sim.dispatch_s", "s", "lower", "host", LAYER},
    {"sim.queue_adopt_s", "s", "lower", "host", LAYER},
    {"sim.queue_rebuild_s", "s", "lower", "host", LAYER},
    {"runtime.tasks", "count", "lower", "count", LAYER},
    {"runtime.steals", "count", "lower", "count", LAYER},
    {"runtime.run_s", "s", "lower", "host", LAYER},
    {"runtime.us_per_task", "us", "lower", "host", LAYER},
    {"runtime.allocs_per_event", "count", "lower", "count", LAYER},
    {"runtime.heap_peak_mb", "MB", "lower", "count", LAYER},
    {"runtime.teardown_s", "s", "lower", "host", LAYER},
    {"runtime.owner_us_per_task", "us", "lower", "host", WL},
    {"runtime.dmdas_us_per_task", "us", "lower", "host", WL},
    {"runtime.static_us_per_task", "us", "lower", "host", WL},
    {"dm.h2d", "count", "lower", "count", LAYER},
    {"dm.d2d", "count", "lower", "count", LAYER},
    {"dm.d2h", "count", "lower", "count", LAYER},
    {"dm.optimistic_waits", "count", "higher", "count", LAYER},
    {"dm.forced_waits", "count", "lower", "count", LAYER},
    {"dm.d2d_share", "fraction", "higher", "count", LAYER},
    {"dm.fetch_s", "s", "lower", "host", LAYER},
    {"mem.evictions", "count", "lower", "count", LAYER},
    {"mem.evict_flushes", "count", "lower", "count", LAYER},
    {"mem.oom_deferrals", "count", "lower", "count", LAYER},
    {"mem.resident_replicas_max", "count", "lower", "count", LAYER},
    {"mem.cache_reserve_s", "s", "lower", "host", LAYER},
    {"mem.cache_touch_s", "s", "lower", "host", LAYER},
    {"tdl.route_s", "s", "lower", "host", WL},
    {"tdl.sparse_bytes", "bytes", "lower", "count", WL},
    {"tdl.fabric_rows", "count", "lower", "count", WL},
    {"wl.build_s", "s", "lower", "host", WL},
    {"wl.emit_s", "s", "lower", "host", WL},
    {"check.host_s", "s", "lower", "host", WL},
    {"check.overhead_x", "x", "lower", "host", WL},
    {"check.rss_mb", "MB", "lower", "count", WL},
    {"check.violations", "count", "lower", "count", WL},
    {"check.allocs", "count", "lower", "count", WL},
    {"obs.overhead_x", "x", "lower", "host", WL},
    {"obs.ledger_s", "s", "lower", "host", WL},
    {"obs.diff_s", "s", "lower", "host", WL},
    {"obs.report_s", "s", "lower", "host", WL},
    {"trace.export_s", "s", "lower", "host", WL},
    {"obs.ledger_bytes", "bytes", "lower", "count", WL},
    {"trace.records", "count", "lower", "count", WL},
    {"obs.allocs", "count", "lower", "count", WL},
    {"svc.submit_us_p50", "us", "lower", "host", WL},
    {"svc.submit_us_p99", "us", "lower", "host", WL},
    {"svc.admitted", "count", "higher", "count", WL},
    {"svc.rejected_queue_full", "count", "lower", "count", WL},
    {"svc.rejected_brownout", "count", "lower", "count", WL},
    {"svc.retries", "count", "lower", "count", WL},
    {"svc.dead_letters", "count", "lower", "count", WL},
    {"svc.util_mean", "fraction", "higher", "virtual", WL},
    {"svc.util_min_gpu", "fraction", "higher", "virtual", WL},
    {"fault.transfer_aborts", "count", "lower", "count", WL},
    {"fault.transfer_retries", "count", "lower", "count", WL},
    {"fault.waiter_replans", "count", "lower", "count", WL},
    {"fault.task_remaps", "count", "lower", "count", WL},
    {"fault.task_replays", "count", "lower", "count", WL},
    {"bench.trace_overhead_x", "x", "lower", "host", LAYER},
    {"bench.span_coverage", "fraction", "higher", "host", LAYER},
};

const MetricDef& metric_def(const std::string& name) {
  for (const MetricDef& m : kMetrics)
    if (name == m.name) return m;
  throw std::logic_error("metric '" + name + "' has no definition");
}

// Minimum repetitions however long each one takes.
constexpr int kMinTimedReps = 3;
constexpr int kMinTracedPairs = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0) || !std::isfinite(a.seconds))
    throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Self-profiler phases attached to traced repetitions.  Sampled phases
// time 1 in 2^k calls; their totals are scaled by calls / timed calls.
void add_selfprof(const xkb::prof::SelfProfiler& sp,
                  std::map<std::string, double>& layer) {
  using xkb::prof::Phase;
  const auto est = [&](Phase p) {
    const xkb::prof::PhaseStats& st = sp.slot(p);
    if (st.timed_calls == 0) return 0.0;
    return 1e-9 * static_cast<double>(st.total_ns) *
           static_cast<double>(st.calls) /
           static_cast<double>(st.timed_calls);
  };
  layer["sim.dispatch_s"] = est(Phase::kEngineRun);
  layer["sim.queue_adopt_s"] = est(Phase::kQueueAdopt);
  layer["sim.queue_rebuild_s"] = est(Phase::kQueueRebuild);
  layer["mem.cache_touch_s"] = est(Phase::kCacheTouch);
  layer["mem.cache_reserve_s"] = est(Phase::kCacheReserve);
  layer["dm.fetch_s"] = est(Phase::kDmFetch);
}

// The per-layer metrics every workload reports, from the repetition's run
// counters and the benchmark's spans around Runtime::run (or Service::drain)
// and run tear-down.
void add_run_layers(Rep& r, const Tracer& tr,
                    const xkb::prof::SelfProfiler& sp, double host_s) {
  const RunCounts& c = r.runs;
  const xkb::rt::TransferStats& ts = c.transfers;
  const auto d = [](auto v) { return static_cast<double>(v); };
  auto& L = r.layer;
  L["sim.events"] = d(c.events);
  L["sim.observable_events"] = d(c.observable);
  L["sim.peak_pending"] = d(c.peak_pending);
  add_selfprof(sp, L);
  L["runtime.tasks"] = d(c.tasks);
  L["runtime.steals"] = d(c.steals);
  L["runtime.run_s"] = tr.seconds("runtime.run");
  L["runtime.us_per_task"] = 1e6 * tr.seconds("runtime.run") / d(c.tasks);
  L["runtime.allocs_per_event"] = d(tr.allocs("runtime.run")) / d(c.events);
  L["runtime.heap_peak_mb"] =
      d(tr.heap_peak("runtime.run")) / (1024.0 * 1024.0);
  L["runtime.teardown_s"] = tr.seconds("runtime.teardown");
  L["dm.h2d"] = d(ts.h2d);
  L["dm.d2d"] = d(ts.d2d);
  L["dm.d2h"] = d(ts.d2h);
  L["dm.optimistic_waits"] = d(ts.optimistic_waits);
  L["dm.forced_waits"] = d(ts.forced_waits);
  L["dm.d2d_share"] =
      ts.h2d + ts.d2d == 0 ? 0.0 : d(ts.d2d) / d(ts.h2d + ts.d2d);
  L["mem.evictions"] = d(c.evictions);
  L["mem.evict_flushes"] = d(ts.evict_flushes);
  L["mem.oom_deferrals"] = d(ts.oom_deferrals);
  L["mem.resident_replicas_max"] = d(c.resident_max);
  L["bench.span_coverage"] = tr.self_time_s() / host_s;
}

class Runner {
 public:
  explicit Runner(Workload& w) : w_(w) {}

  /// The warm-up repetition: the reference every later one must equal.
  void warm_up() {
    Tracer off(false);
    warm_ = w_.rep(off);
    for (const Op& op : warm_.ops) count(op, op.error);
    for (const Op& op : w_.verify()) count(op, op.error);
  }

  /// One repetition; `host_s` receives its whole host time.
  Rep repeat(bool traced, double& host_s) {
    Tracer tr(traced);
    xkb::prof::SelfProfiler sp;
    if (traced) xkb::prof::SelfProfiler::activate(&sp);
    const double t0 = now_s();
    Rep r = w_.rep(tr);
    host_s = now_s() - t0;
    xkb::prof::SelfProfiler::activate(nullptr);
    if (traced) add_run_layers(r, tr, sp, host_s);
    compare(r);
    return r;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const Rep& warm() const { return warm_; }

 private:
  void count(const Op& op, const std::string& error) {
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", op.name.c_str(), error.c_str());
  }

  void compare(const Rep& r) {
    if (r.ops.size() != warm_.ops.size()) {
      count({"repetition", "", ""}, "operation count differs from warm-up");
      return;
    }
    for (std::size_t i = 0; i < r.ops.size(); ++i) {
      const Op& op = r.ops[i];
      std::string err = op.error;
      if (err.empty() && (op.name != warm_.ops[i].name ||
                          op.digest != warm_.ops[i].digest))
        err = "digest " + op.digest + " != warm-up " + warm_.ops[i].digest;
      count(op, err);
    }
  }

  Workload& w_;
  Rep warm_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::map<std::string, double> medians(
    const std::vector<std::map<std::string, double>>& samples) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& s : samples)
    for (const auto& [k, v] : s) by_name[k].push_back(v);
  std::map<std::string, double> out;
  for (const auto& [k, v] : by_name) out[k] = median(v);
  return out;
}

// Prints the table, then the result line with exactly the metrics of
// `scope`; every one of them must have been measured.
void print_result(const std::map<std::string, double>& metrics, Scope scope,
                  int reps, const Runner& run) {
  for (const MetricDef& d : kMetrics)
    if (d.scope == scope && !metrics.count(d.name))
      throw std::logic_error(std::string("metric '") + d.name +
                             "' was not measured");
  std::printf("%-28s %20s  %-9s %-7s %s\n", "metric", "value", "unit",
              "kind", "better");
  for (const bool shared : {true, false}) {
    bool header = shared;
    for (const auto& [name, v] : metrics) {
      const MetricDef& d = metric_def(name);
      if ((d.scope == scope) != shared) continue;
      if (!header)
        std::printf("workload-specific (not in the result line):\n");
      header = true;
      std::printf("%-28s %20.6f  %-9s %-7s %s\n", name.c_str(), v, d.unit,
                  d.kind, d.better);
    }
  }
  std::printf("repetitions %d (%s reported), operations %llu, failed %llu\n",
              reps, scope == Scope::kEndToEnd ? "fastest" : "median",
              static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()));
  std::string js = "{\"correct\": ";
  js += run.failed() == 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(run.attempted());
  js += ", \"failed\": " + std::to_string(run.failed());
  js += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    const MetricDef& d = metric_def(name);
    if (d.scope != scope) continue;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    js += first ? "" : ", ";
    js += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
          d.unit + "\"}";
    first = false;
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "xkb_perfbench: %s\nusage: xkb_perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\n",
                 e.what());
    return 2;
  }
  try {
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    Runner run(*w);
    run.warm_up();

    std::map<std::string, double> metrics;
    int reps = 0;
    const double start = now_s();
    if (!args.trace) {
      // The host's speed moves in phases that can outlast a run (a busy
      // phase slows every repetition in it by up to 1.8x), so the median
      // of a run follows the phase it fell in.  The fastest repetition is
      // the one least slowed by the rest of the machine; events per
      // repetition are fixed, so its rate is the highest.
      std::vector<double> setup, wall;
      std::uint64_t events = 0;
      while (reps < kMinTimedReps || now_s() - start < args.seconds) {
        double host_s = 0.0;
        const Rep r = run.repeat(false, host_s);
        setup.push_back(r.setup_s);
        wall.push_back(r.wall_s);
        events = r.runs.events;
        ++reps;
      }
      metrics["setup_s"] = *std::min_element(setup.begin(), setup.end());
      metrics["wall_s"] = *std::min_element(wall.begin(), wall.end());
      metrics["sim_events_per_s"] =
          static_cast<double>(events) / metrics["wall_s"];
      metrics["peak_rss_mb"] = peak_rss_mb();
      for (const auto& [k, v] : run.warm().virt) metrics[k] = v;
    } else {
      // Untraced and traced repetitions alternate, so the tracing overhead
      // is measured under the same machine conditions.
      std::vector<double> plain, traced;
      std::vector<std::map<std::string, double>> samples;
      while (reps < 2 * kMinTracedPairs || now_s() - start < args.seconds ||
             reps % 2 != 0) {
        double host_s = 0.0;
        const bool on = reps % 2 == 1;
        Rep r = run.repeat(on, host_s);
        (on ? traced : plain).push_back(host_s);
        if (on) samples.push_back(std::move(r.layer));
        ++reps;
      }
      metrics = medians(samples);
      metrics["bench.trace_overhead_x"] = median(traced) / median(plain);
    }
    print_result(metrics, args.trace ? Scope::kPerLayer : Scope::kEndToEnd,
                 reps, run);
    return run.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xkb_perfbench: %s\n", e.what());
    return 1;
  }
}
