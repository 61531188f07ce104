// Figure 7: execution trace of SYR2K FP64 (N = 49152) broken down by GPU,
// for Chameleon Tile, cuBLAS-XT and XKBlas.  The paper's point: Chameleon's
// dmdas balances the per-GPU load; XKBlas shows work/communication imbalance
// (its work stealing is locality-blind); cuBLAS-XT is dominated by
// transfers everywhere.
#include <cstdio>

#include "bench_common.hpp"

using namespace xkb;
using namespace xkb::baselines;

int main() {
  std::printf(
      "== Fig. 7: SYR2K FP64 N=49152 -- per-GPU execution breakdown ==\n\n");

  BenchConfig cfg;
  cfg.routine = Blas3::kSyr2k;
  cfg.n = 49152;
  cfg.tile = 2048;

  std::vector<std::unique_ptr<LibraryModel>> models;
  models.push_back(make_chameleon(/*tile_layout=*/true));
  models.push_back(make_cublasxt());
  models.push_back(make_xkblas(rt::HeuristicConfig::xkblas()));

  for (auto& m : models) {
    const BenchResult r = m->run(cfg);
    std::printf("%s (%.2f TFlop/s, %.2f s):\n", m->name().c_str(), r.tflops,
                r.seconds);
    Table t({"GPU", "DtoH(s)", "HtoD(s)", "PtoP(s)", "Kernel(s)", "Busy(s)"});
    double kmin = 1e30, kmax = 0.0;
    for (std::size_t g = 0; g < r.per_gpu.size(); ++g) {
      const trace::Breakdown& b = r.per_gpu[g];
      kmin = std::min(kmin, b.kernel);
      kmax = std::max(kmax, b.kernel);
      t.add_row({std::to_string(g), Table::num(b.dtoh, 2),
                 Table::num(b.htod, 2), Table::num(b.ptop, 2),
                 Table::num(b.kernel, 2), Table::num(b.total(), 2)});
    }
    std::printf("%s  kernel-time imbalance (max/min): %.2f\n\n",
                t.to_text().c_str(), kmax / (kmin > 0 ? kmin : 1.0));
  }
  return 0;
}
