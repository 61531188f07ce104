// The generic-DAG entry point next to composition.cpp: run any xkb::wl
// workload graph under a library model's policy spec, with the exact same
// run skeleton, scenarios and result capture as the BLAS benchmarks -- so a
// stencil sweep and a GEMM sweep are directly comparable rows.
#pragma once

#include "baselines/common.hpp"
#include "workload/workload.hpp"

namespace xkb::baselines {

/// The workload analogue of BenchConfig: no routine/n/tile, the graph
/// carries its own shape and costs (data-on-device pre-places inputs on
/// their consumers).
using WorkloadBenchConfig = RunConfig;

/// Run `graph` under `spec` through the same run_plan skeleton as
/// run_with_spec, the graph bridged through wl::Bridge, results captured
/// into the same BenchResult (transfers, check verdict, obs pieces, fault
/// counters).
BenchResult run_workload(const ModelSpec& spec, const wl::WorkloadGraph& graph,
                         const WorkloadBenchConfig& cfg);

/// The ModelSpec behind a named library model ("xkblas", "slate", ...),
/// with `heur` applied to the XKBlas variants.  Unknown names throw
/// std::invalid_argument listing every accepted value.
ModelSpec spec_for_library(const std::string& name, rt::HeuristicConfig heur);

/// All accepted spec_for_library names (CLI error messages).
std::vector<std::string> library_names();

}  // namespace xkb::baselines
