// fat_tree_1024: the 64-node x 16-GPU tdl fat tree (1024 devices, the
// scale the repository claims) running a stencil under xkb::check, then
// the same graph unchecked as its twin.  Routing lands in setup_s; the
// checker is most of wall_s and of the peak RSS.
#include <memory>
#include <string>

#include "runtime/runtime.hpp"
#include "tdl/presets.hpp"
#include "topo/topology.hpp"
#include "workload/bridge.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace rt = xkb::rt;
namespace wl = xkb::wl;

// One run of the stencil on a fresh platform: construction and bridging
// are set-up, emission and the drain are the timed phase.
struct StencilRun {
  StencilRun(const xkb::topo::Topology& topo, const wl::WorkloadGraph& g,
             bool checked)
      : plat(topo, rt::PerfModel{}, options()),
        runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                runtime_options(checked)),
        bridge(runtime, g, bridge_options(plat.num_gpus())) {
    if (!checked) hash_events(plat.engine(), hash);  // else the checker's
  }
  StencilRun(const StencilRun&) = delete;
  StencilRun& operator=(const StencilRun&) = delete;

  static rt::PlatformOptions options() {
    rt::PlatformOptions popt;
    popt.functional = false;
    return popt;
  }
  static rt::RuntimeOptions runtime_options(bool checked) {
    rt::RuntimeOptions ropt;
    ropt.check.enabled = checked;
    return ropt;
  }
  static wl::BridgeOptions bridge_options(int devices) {
    wl::BridgeOptions bopt;
    bopt.home = [devices](std::size_t i, std::size_t) {
      return static_cast<int>(i % static_cast<std::size_t>(devices));
    };
    return bopt;
  }

  rt::Platform plat;
  rt::Runtime runtime;
  wl::Bridge bridge;
  std::uint64_t hash = kFnvBasis;
};

class FatTree1024 : public Workload {
 public:
  // A stencil two tiles wide per device, so every device owns tiles and
  // every halo exchange crosses a route (tools/topo_bench's shape).
  FatTree1024()
      : spec_(wl::WorkloadSpec::parse("stencil_1d:width=2048,depth=8")) {}

  Rep rep(Tracer& tr) override {
    Rep r;
    std::unique_ptr<xkb::topo::Topology> topo;
    {
      Timed t(r.setup_s, tr, "tdl.route");
      xkb::tdl::FatTreeSpec ft;
      ft.nodes = 64;
      ft.gpus_per_node = 16;
      topo = std::make_unique<xkb::topo::Topology>(
          xkb::topo::Topology::from_machine(xkb::tdl::fat_tree_machine(ft)));
    }
    std::unique_ptr<wl::WorkloadGraph> g;
    {
      Timed t(r.setup_s, tr, "wl.build");
      g = std::make_unique<wl::WorkloadGraph>(wl::build(spec_));
    }

    double makespan[2] = {0, 0};
    for (const bool checked : {true, false}) {
      const char* name = checked ? "check.checked" : "check.unchecked";
      Op op{name, "", ""};
      try {
        Tracer::Scope whole(tr, name);
        std::unique_ptr<StencilRun> run;
        {
          Timed t(r.setup_s, tr, "runtime.setup");
          run = std::make_unique<StencilRun>(*topo, *g, checked);
        }
        {
          Timed t(r.wall_s, tr, "wl.emit");
          run->bridge.emit();
          run->bridge.coherent();
        }
        {
          Timed t(r.wall_s, tr, "runtime.run");
          makespan[checked ? 0 : 1] = run->runtime.run();
        }
        r.runs.add(run->plat, run->runtime);
        std::uint64_t hash = run->hash;
        if (const xkb::check::Checker* c = run->runtime.checker()) {
          hash = c->event_hash();
          if (!c->ok()) op.error = "checker: " + c->report();
          if (tr.on())
            r.layer["check.violations"] =
                static_cast<double>(c->total_violations());
        }
        if (tr.on() && checked) {
          r.layer["tdl.sparse_bytes"] =
              static_cast<double>(run->plat.topology().sparse_bytes());
          r.layer["tdl.fabric_rows"] =
              static_cast<double>(run->plat.topology().fabric_rows_cached());
        }
        op.digest = run_digest(hash, makespan[checked ? 0 : 1]);
        Timed t(r.wall_s, tr, "runtime.teardown");
        run.reset();
      } catch (const std::exception& ex) {
        op.error = ex.what();
      }
      r.ops.push_back(std::move(op));
    }

    // The checker is passive: the twin must reach the same makespan.
    Op same{"checked makespan equals unchecked", "", ""};
    if (makespan[0] != makespan[1])
      same.error = "checked " + std::to_string(makespan[0]) +
                   " s, unchecked " + std::to_string(makespan[1]) + " s";
    r.ops.push_back(std::move(same));
    r.virt["virtual_tflops"] = g->total_flops() / makespan[0] / 1e12;

    if (tr.on()) {
      auto& L = r.layer;
      L["tdl.route_s"] = tr.seconds("tdl.route");
      L["wl.build_s"] = tr.seconds("wl.build");
      L["wl.emit_s"] = tr.seconds("wl.emit");
      const double on = tr.seconds("check.checked");
      const double off = tr.seconds("check.unchecked");
      L["check.host_s"] = on - off;
      L["check.overhead_x"] = on / off;
      L["check.rss_mb"] =
          (static_cast<double>(tr.heap_peak("check.checked")) -
           static_cast<double>(tr.heap_peak("check.unchecked"))) /
          (1024.0 * 1024.0);
      L["check.allocs"] = static_cast<double>(tr.allocs("check.checked")) -
                          static_cast<double>(tr.allocs("check.unchecked"));
    }
    return r;
  }

 private:
  wl::WorkloadSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_fat_tree_1024(std::uint64_t /*seed*/) {
  return std::make_unique<FatTree1024>();
}

}  // namespace perfbench
