#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

std::vector<std::string> workload_names() {
  return {"paper_dgx1", "fat_tree_1024", "svc_soak", "obs_explain"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_dgx1") return make_paper_dgx1(seed);
  if (name == "fat_tree_1024") return make_fat_tree_1024(seed);
  if (name == "svc_soak") return make_svc_soak(seed);
  if (name == "obs_explain") return make_obs_explain(seed);
  std::string known;
  for (const std::string& n : workload_names()) known += " " + n;
  throw std::invalid_argument("unknown workload '" + name + "'; known:" +
                              known);
}

}  // namespace perfbench
