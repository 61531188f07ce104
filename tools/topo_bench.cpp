// topo_bench: scale-out evidence for the tdl routed topology.
//
// Sweeps fat-tree machines at 8 / 64 / 256 / 1024 devices, runs a checked
// stencil workload on each, and emits BENCH_topo.json (schema
// xkb.bench.topo/1, obs::Provenance, --append trajectory like perf_bench):
// per-point simulated events/sec, a peak-RSS proxy (VmHWM where
// /proc/self/status exists), and the topology's sparse-representation
// accounting against the dense n*n counterfactual.
//
// Hard gates (CI + ctest):
//   exit 4  a checked run fails (xkb::check violation or failed run)
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
#include <cstdint>
#include <cstdio>
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

struct Point {
  int devices = 0;
  std::string machine;
  std::size_t tasks = 0;
  std::uint64_t sim_events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::size_t rss_kb = 0;
  std::size_t sparse_bytes = 0;
  std::size_t dense_bytes = 0;
  std::size_t fabric_rows = 0;
  bool check_ok = false;
  std::string check_report;
};

Point run_scale(int nodes, int gpus_per_node) {
  tdl::FatTreeSpec spec;
  spec.nodes = nodes;
  spec.gpus_per_node = gpus_per_node;
  const topo::Topology topo =
      topo::Topology::from_machine(tdl::fat_tree_machine(spec));

  Point p;
  p.devices = topo.num_gpus();
  p.machine = topo.name();

  // A stencil wide enough that every device owns tiles and every halo
  // exchange crosses a route; depth keeps the task count proportional to
  // the device count, so events/sec is comparable across sizes.
  std::ostringstream ws;
  ws << "stencil_1d:width=" << 2 * p.devices << ",depth=8";
  const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(ws.str()));

  rt::PlatformOptions popt;
  popt.functional = false;
  rt::Platform plat(topo, rt::PerfModel{}, popt);
  rt::RuntimeOptions ropt;
  ropt.check.enabled = true;
  rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                      ropt);

  wl::BridgeOptions bopt;
  bopt.home = [n = plat.num_gpus()](std::size_t i, std::size_t) {
    return static_cast<int>(i % static_cast<std::size_t>(n));
  };
  wl::Bridge bridge(runtime, g, std::move(bopt));

  p.wall_s = bench::wall_of([&] {
    bridge.emit();
    bridge.coherent();
    runtime.run();
  });
  p.tasks = g.tasks.size();
  p.sim_events = plat.engine().events_processed();
  p.events_per_sec =
      p.wall_s > 0 ? static_cast<double>(p.sim_events) / p.wall_s : 0.0;
  p.rss_kb = peak_rss_kb();
  p.sparse_bytes = plat.topology().sparse_bytes();
  p.dense_bytes = topo::Topology::dense_bytes(p.devices);
  p.fabric_rows = plat.topology().fabric_rows_cached();
  if (const check::Checker* c = runtime.checker()) {
    p.check_ok = c->ok();
    p.check_report = c->report();
  }
  return p;
}

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
    points.push_back(run_scale(s.nodes, s.gpus_per_node));
    const Point& p = points.back();
    std::printf(
        "%-16s %5d dev  %8zu tasks  %10llu events  %7.3f s  %10.0f ev/s  "
        "rss %zu KB  sparse %zu B (dense %zu B)  check %s\n",
        p.machine.c_str(), p.devices, p.tasks,
        static_cast<unsigned long long>(p.sim_events), p.wall_s,
        p.events_per_sec, p.rss_kb, p.sparse_bytes, p.dense_bytes,
        p.check_ok ? "ok" : "FAIL");
    if (!p.check_ok) {
      std::fprintf(stderr, "topo_bench: CHECK FAILED at %d devices:\n%s\n",
                   p.devices, p.check_report.c_str());
      return 4;
    }
  }

  // Memory gates: the sparse routed view must beat the dense n*n tables
  // decisively at scale, and per-device footprint must stay bounded (the
  // fat tree's active links per device are constant across sizes).
  const double per_dev_first =
      static_cast<double>(points.front().sparse_bytes) /
      points.front().devices;
  bool mem_ok = true;
  for (const Point& p : points) {
    // Sparse O(links) vs dense O(n^2): any win at 64 devices, a decisive
    // 8x at 256+ where the quadratic term dominates.
    const std::size_t factor = p.devices >= 256 ? 8 : 1;
    if (p.devices >= 64 && p.sparse_bytes * factor >= p.dense_bytes) {
      std::fprintf(stderr,
                   "topo_bench: MEMORY GATE FAILED: sparse %zu B vs dense "
                   "%zu B at %d devices\n",
                   p.sparse_bytes, p.dense_bytes, p.devices);
      mem_ok = false;
    }
    const double per_dev = static_cast<double>(p.sparse_bytes) / p.devices;
    if (per_dev > 4.0 * per_dev_first) {
      std::fprintf(stderr,
                   "topo_bench: MEMORY GATE FAILED: %.0f B/device at %d "
                   "devices vs %.0f B/device at %d -- not O(active links)\n",
                   per_dev, p.devices, per_dev_first,
                   points.front().devices);
      mem_ok = false;
    }
  }
  if (!mem_ok) return 5;

  const obs::Provenance prov = obs::Provenance::current("xkb.bench.topo", 1);
  const char* mode = smoke ? "smoke" : "full";
  const Point& top = points.back();
  util::JsonArray rows;
  for (const Point& p : points)
    rows.push_back(bench::object(
        {{"devices", p.devices}, {"machine", p.machine}, {"tasks", p.tasks},
         {"sim_events", p.sim_events}, {"wall_s", p.wall_s},
         {"events_per_sec", p.events_per_sec}, {"peak_rss_kb", p.rss_kb},
         {"sparse_bytes", p.sparse_bytes}, {"dense_bytes", p.dense_bytes},
         {"bytes_per_device",
          static_cast<double>(p.sparse_bytes) / p.devices},
         {"fabric_rows", p.fabric_rows}, {"check_ok", true}}));
  const util::JsonValue doc = bench::object(
      {{"schema", prov.tag()},
       {"provenance", bench::provenance(prov)},
       {"trajectory", bench::trajectory(
                          out, append, prov, mode,
                          {{"devices", top.devices},
                           {"events_per_sec", top.events_per_sec},
                           {"sparse_bytes", top.sparse_bytes}},
                          "events_per_sec")},
       {"mode", mode},
       {"points", std::move(rows)},
       {"gates", bench::object({{"check", "ok"},
                                {"sparse_vs_dense", "ok"},
                                {"per_device_bounded", "ok"}})}});
  if (!bench::write_artifact(out, doc)) return 2;
  std::printf("topo_bench: wrote %s\n", out.c_str());
  return 0;
}
