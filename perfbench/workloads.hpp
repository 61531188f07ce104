// The benchmark's four workloads.  Each one is built once per process
// (inputs from the seed) and then repeated; see BENCHMARK.json for why
// each was chosen.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_paper_dgx1(std::uint64_t seed);
std::unique_ptr<Workload> make_fat_tree_1024(std::uint64_t seed);
std::unique_ptr<Workload> make_svc_soak(std::uint64_t seed);
std::unique_ptr<Workload> make_obs_explain(std::uint64_t seed);

/// Workload names accepted by --workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
