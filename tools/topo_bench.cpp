// topo_bench: scale-out evidence for the tdl routed topology and for the
// checker's cost at that scale.
//
// Sweeps fat-tree machines at 8 / 64 / 256 / 1024 devices and runs the same
// stencil workload on each twice, under xkb::check and unchecked.  Emits
// BENCH_topo.json (schema xkb.bench.topo/2, obs::Provenance, --append
// trajectory like perf_bench): per point the simulated events/sec, wall
// time and peak RSS of each run, the checked/unchecked ratios, and the
// topology's sparse-representation accounting against the dense n*n
// counterfactual.  Every run executes in a child process of its own, so
// its peak RSS (VmHWM, where /proc/self/status exists) is its own and not
// the high-water mark of the largest run before it.
//
// Hard gates (CI + ctest):
//   exit 4  a checked run fails (xkb::check violation or failed run), or
//           the checker is not passive: the unchecked twin must process
//           the same events to the same makespan
//   exit 5  memory scale-out violated: sparse_bytes must beat the dense
//           n*n counterfactual at 64 devices and by 8x at 256+, and
//           per-device sparse bytes must stay within 4x of the smallest
//           size's -- per-device memory is O(active links), not
//           O(devices^2).
//
//   topo_bench [--smoke] [--out F] [--append]
//
// --smoke stops the sweep at 64 devices for a seconds-long ctest entry;
// the CI topology job runs the full 1024-device soak.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "runtime/runtime.hpp"
#include "tdl/presets.hpp"
#include "topo/topology.hpp"
#include "workload/bridge.hpp"
#include "workload/workload.hpp"

using namespace xkb;

namespace {

/// Peak resident set in KB from /proc/self/status (0 where unavailable);
/// a proxy, not a gate -- the hard memory gate is the deterministic
/// sparse-vs-dense accounting below.
std::size_t peak_rss_kb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      std::istringstream is(line.substr(6));
      std::size_t kb = 0;
      is >> kb;
      return kb;
    }
  }
  return 0;
}

/// One run, as its child process reports it back: plain data, followed on
/// the pipe by the checker's report text.
struct Run {
  char machine[64] = {};
  int devices = 0;
  std::size_t tasks = 0;
  std::uint64_t sim_events = 0;
  double makespan = 0.0;
  double wall_s = 0.0;
  std::size_t rss_kb = 0;
  std::size_t sparse_bytes = 0;
  std::size_t fabric_rows = 0;
  bool check_ok = false;
};

Run run_scale(int nodes, int gpus_per_node, bool checked,
              std::string& report) {
  tdl::FatTreeSpec spec;
  spec.nodes = nodes;
  spec.gpus_per_node = gpus_per_node;
  const topo::Topology topo =
      topo::Topology::from_machine(tdl::fat_tree_machine(spec));

  Run r;
  r.devices = topo.num_gpus();
  std::snprintf(r.machine, sizeof r.machine, "%s", topo.name().c_str());

  // A stencil wide enough that every device owns tiles and every halo
  // exchange crosses a route; depth keeps the task count proportional to
  // the device count, so events/sec is comparable across sizes.
  std::ostringstream ws;
  ws << "stencil_1d:width=" << 2 * r.devices << ",depth=8";
  const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(ws.str()));

  rt::PlatformOptions popt;
  popt.functional = false;
  rt::Platform plat(topo, rt::PerfModel{}, popt);
  rt::RuntimeOptions ropt;
  ropt.check.enabled = checked;
  rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                      ropt);

  wl::BridgeOptions bopt;
  bopt.home = [n = plat.num_gpus()](std::size_t i, std::size_t) {
    return static_cast<int>(i % static_cast<std::size_t>(n));
  };
  wl::Bridge bridge(runtime, g, std::move(bopt));

  r.wall_s = bench::wall_of([&] {
    bridge.emit();
    bridge.coherent();
    r.makespan = runtime.run();
  });
  r.tasks = g.tasks.size();
  r.sim_events = plat.engine().events_processed();
  r.rss_kb = peak_rss_kb();
  r.sparse_bytes = plat.topology().sparse_bytes();
  r.fabric_rows = plat.topology().fabric_rows_cached();
  r.check_ok = true;
  if (const check::Checker* c = runtime.checker()) {
    r.check_ok = c->ok();
    report = c->report();
  }
  return r;
}

/// run_scale in a child process: a process's VmHWM never goes down, so in
/// one process every run would inherit the peak of the largest run before
/// it.  False (with the reason in `report`) when the child failed.
bool run_isolated(int nodes, int gpus_per_node, bool checked, Run& r,
                  std::string& report) {
  int fd[2];
  if (pipe(fd) != 0) {
    report = "pipe failed";
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    report = "fork failed";
    close(fd[0]);
    close(fd[1]);
    return false;
  }
  if (pid == 0) {
    close(fd[0]);
    int code = 0;
    try {
      std::string rep;
      const Run res = run_scale(nodes, gpus_per_node, checked, rep);
      std::string out(reinterpret_cast<const char*>(&res), sizeof res);
      out += rep;
      for (std::size_t off = 0; off < out.size();) {
        const ssize_t n = write(fd[1], out.data() + off, out.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "topo_bench: %s\n", e.what());
      code = 1;
    }
    close(fd[1]);
    _exit(code);
  }
  close(fd[1]);
  std::string bytes;
  char buf[4096];
  for (ssize_t n; (n = read(fd[0], buf, sizeof buf)) > 0;)
    bytes.append(buf, static_cast<std::size_t>(n));
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      bytes.size() < sizeof r) {
    report = "run failed in its child process";
    return false;
  }
  std::memcpy(&r, bytes.data(), sizeof r);
  report = bytes.substr(sizeof r);
  return true;
}

double ratio(double on, double off) { return off > 0 ? on / off : 0.0; }
double per_sec(const Run& r) {
  return r.wall_s > 0 ? static_cast<double>(r.sim_events) / r.wall_s : 0.0;
}

/// One scale: the checked run and its unchecked twin.
struct Point {
  Run on, off;
  std::size_t dense_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, append = false;
  std::string out = "BENCH_topo.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--append") append = true;
    else if (arg == "--out" && i + 1 < argc) out = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: topo_bench [--smoke] [--out F] [--append]\n");
      return 2;
    }
  }

  struct Scale {
    int nodes, gpus_per_node;
  };
  std::vector<Scale> scales = {{1, 8}, {4, 16}};
  if (!smoke) {
    scales.push_back({16, 16});
    scales.push_back({64, 16});
  }

  std::vector<Point> points;
  for (const Scale& s : scales) {
    Point p;
    std::string report;
    const bool ran =
        run_isolated(s.nodes, s.gpus_per_node, true, p.on, report) &&
        p.on.check_ok;
    if (!ran) {
      std::fprintf(stderr, "topo_bench: CHECK FAILED at %d devices:\n%s\n",
                   s.nodes * s.gpus_per_node, report.c_str());
      return 4;
    }
    if (!run_isolated(s.nodes, s.gpus_per_node, false, p.off, report) ||
        p.off.sim_events != p.on.sim_events ||
        p.off.makespan != p.on.makespan) {
      std::fprintf(stderr,
                   "topo_bench: CHECKER NOT PASSIVE at %d devices: checked "
                   "%llu events to %.9g s, unchecked %llu events to %.9g s "
                   "%s\n",
                   p.on.devices,
                   static_cast<unsigned long long>(p.on.sim_events),
                   p.on.makespan,
                   static_cast<unsigned long long>(p.off.sim_events),
                   p.off.makespan, report.c_str());
      return 4;
    }
    p.dense_bytes = topo::Topology::dense_bytes(p.on.devices);
    points.push_back(p);
    std::printf(
        "%-16s %5d dev  %8zu tasks  %10llu events  checked %7.3f s "
        "%10.0f ev/s rss %8zu KB  unchecked %7.3f s rss %8zu KB  "
        "check x%.2f wall x%.2f rss  sparse %zu B (dense %zu B)\n",
        p.on.machine, p.on.devices, p.on.tasks,
        static_cast<unsigned long long>(p.on.sim_events), p.on.wall_s,
        per_sec(p.on), p.on.rss_kb, p.off.wall_s, p.off.rss_kb,
        ratio(p.on.wall_s, p.off.wall_s),
        ratio(static_cast<double>(p.on.rss_kb),
              static_cast<double>(p.off.rss_kb)),
        p.on.sparse_bytes, p.dense_bytes);
  }

  // Memory gates: the sparse routed view must beat the dense n*n tables
  // decisively at scale, and per-device footprint must stay bounded (the
  // fat tree's active links per device are constant across sizes).
  const double per_dev_first =
      static_cast<double>(points.front().on.sparse_bytes) /
      points.front().on.devices;
  bool mem_ok = true;
  for (const Point& pt : points) {
    const Run& p = pt.on;
    // Sparse O(links) vs dense O(n^2): any win at 64 devices, a decisive
    // 8x at 256+ where the quadratic term dominates.
    const std::size_t factor = p.devices >= 256 ? 8 : 1;
    if (p.devices >= 64 && p.sparse_bytes * factor >= pt.dense_bytes) {
      std::fprintf(stderr,
                   "topo_bench: MEMORY GATE FAILED: sparse %zu B vs dense "
                   "%zu B at %d devices\n",
                   p.sparse_bytes, pt.dense_bytes, p.devices);
      mem_ok = false;
    }
    const double per_dev = static_cast<double>(p.sparse_bytes) / p.devices;
    if (per_dev > 4.0 * per_dev_first) {
      std::fprintf(stderr,
                   "topo_bench: MEMORY GATE FAILED: %.0f B/device at %d "
                   "devices vs %.0f B/device at %d -- not O(active links)\n",
                   per_dev, p.devices, per_dev_first,
                   points.front().on.devices);
      mem_ok = false;
    }
  }
  if (!mem_ok) return 5;

  const obs::Provenance prov = obs::Provenance::current("xkb.bench.topo", 2);
  const char* mode = smoke ? "smoke" : "full";
  const Point& top = points.back();
  util::JsonArray rows;
  for (const Point& p : points)
    rows.push_back(bench::object(
        {{"devices", p.on.devices}, {"machine", std::string(p.on.machine)},
         {"tasks", p.on.tasks}, {"sim_events", p.on.sim_events},
         {"wall_s", p.on.wall_s}, {"events_per_sec", per_sec(p.on)},
         {"peak_rss_kb", p.on.rss_kb},
         {"unchecked_wall_s", p.off.wall_s},
         {"unchecked_events_per_sec", per_sec(p.off)},
         {"unchecked_peak_rss_kb", p.off.rss_kb},
         {"check_wall_x", ratio(p.on.wall_s, p.off.wall_s)},
         {"check_rss_x", ratio(static_cast<double>(p.on.rss_kb),
                               static_cast<double>(p.off.rss_kb))},
         {"sparse_bytes", p.on.sparse_bytes}, {"dense_bytes", p.dense_bytes},
         {"bytes_per_device",
          static_cast<double>(p.on.sparse_bytes) / p.on.devices},
         {"fabric_rows", p.on.fabric_rows}, {"check_ok", true}}));
  const util::JsonValue doc = bench::object(
      {{"schema", prov.tag()},
       {"provenance", bench::provenance(prov)},
       {"trajectory",
        bench::trajectory(
            out, append, prov, mode,
            {{"devices", top.on.devices},
             {"events_per_sec", per_sec(top.on)},
             {"check_wall_x", ratio(top.on.wall_s, top.off.wall_s)},
             {"check_rss_x", ratio(static_cast<double>(top.on.rss_kb),
                                   static_cast<double>(top.off.rss_kb))},
             {"sparse_bytes", top.on.sparse_bytes}},
            "events_per_sec")},
       {"mode", mode},
       {"points", std::move(rows)},
       {"gates", bench::object({{"check", "ok"},
                                {"passive", "ok"},
                                {"sparse_vs_dense", "ok"},
                                {"per_device_bounded", "ok"}})}});
  if (!bench::write_artifact(out, doc)) return 2;
  std::printf("topo_bench: wrote %s\n", out.c_str());
  return 0;
}
