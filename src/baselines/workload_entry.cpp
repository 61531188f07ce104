#include "baselines/workload_entry.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "workload/bridge.hpp"

namespace xkb::baselines {

BenchResult run_workload(const ModelSpec& spec, const wl::WorkloadGraph& graph,
                         const WorkloadBenchConfig& cfg) {
  graph.validate();
  obs::LedgerMeta meta;
  meta.routine = graph.name;
  return run_plan(spec, cfg, std::move(meta), [&](rt::Runtime& runtime) {
    // Placement: grid-placement graphs (the composition capture) map
    // through the same (P, Q) block-cyclic grid as the BLAS emitters;
    // layered graphs spread layer points round-robin so neighbouring points
    // land on neighbouring devices and stencil halos cross real links.
    const int ngpus = runtime.platform().num_gpus();
    wl::BridgeOptions bopt;
    bopt.flush_outputs = spec.flush_outputs_each_task;
    std::function<int(std::size_t, std::size_t)> place;
    if (graph.grid_placement) {
      auto [P, Q] = blas::default_grid(ngpus);
      place = [P = P, Q = Q](std::size_t i, std::size_t j) {
        return static_cast<int>(i % static_cast<std::size_t>(P)) * Q +
               static_cast<int>(j % static_cast<std::size_t>(Q));
      };
    } else {
      place = [ngpus](std::size_t i, std::size_t) {
        return static_cast<int>(i % static_cast<std::size_t>(ngpus));
      };
    }
    if (spec.static_block_cyclic)
      bopt.force_place = place;
    else
      bopt.home = place;
    auto bridge =
        std::make_shared<wl::Bridge>(runtime, graph, std::move(bopt));
    RoutinePlan plan;
    plan.distribute = [bridge] { bridge->distribute(); };
    plan.emit = [bridge] { bridge->emit(); };
    plan.coherent = [bridge] { bridge->coherent(); };
    plan.flops = graph.total_flops();
    return plan;
  });
}

std::vector<std::string> library_names() {
  return {"xkblas",    "blasx",     "chameleon-tile", "chameleon-lapack",
          "cublas-xt", "cublas-mg", "dplasma",        "slate"};
}

ModelSpec spec_for_library(const std::string& name, rt::HeuristicConfig heur) {
  std::unique_ptr<LibraryModel> model;
  if (name == "xkblas") model = make_xkblas(heur);
  else if (name == "blasx") model = make_blasx();
  else if (name == "chameleon-tile") model = make_chameleon(true);
  else if (name == "chameleon-lapack") model = make_chameleon(false);
  else if (name == "cublas-xt") model = make_cublasxt();
  else if (name == "cublas-mg") model = make_cublasmg();
  else if (name == "dplasma") model = make_dplasma();
  else if (name == "slate") model = make_slate();
  if (!model) {
    std::string all;
    for (const std::string& n : library_names())
      all += (all.empty() ? "" : "|") + n;
    throw std::invalid_argument("unknown library '" + name +
                                "' (accepted: " + all + ")");
  }
  // Every make_* builds a SpecModel.
  return dynamic_cast<const SpecModel&>(*model).spec();
}

}  // namespace xkb::baselines
