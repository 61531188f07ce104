// Figure 6: detailed execution of GEMM FP64 (N = 32768) on the 8 GPUs --
// cumulative execution time per operation class (left plot of the paper)
// and the ratio normalized over each library's total (right plot).
#include <cstdio>

#include "bench_common.hpp"

using namespace xkb;
using namespace xkb::baselines;

int main() {
  std::printf(
      "== Fig. 6: GEMM FP64 N=32768 -- time per GPU operation class ==\n\n");

  std::vector<std::unique_ptr<LibraryModel>> models;
  models.push_back(make_blasx());
  models.push_back(make_chameleon(/*tile_layout=*/true));
  models.push_back(make_cublasmg());
  models.push_back(make_cublasxt());
  models.push_back(make_dplasma());
  models.push_back(make_xkblas(rt::HeuristicConfig::xkblas()));

  BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = 32768;
  cfg.tile = 2048;

  Table cum({"Library", "DtoH(s)", "HtoD(s)", "PtoP(s)", "Kernel(s)",
             "Total(s)"});
  Table norm({"Library", "DtoH(%)", "HtoD(%)", "PtoP(%)", "Kernel(%)",
              "Transfers(%)"});
  for (auto& m : models) {
    const BenchResult r = m->run(cfg);
    if (!r.supported || r.failed) {
      cum.add_row({m->name(), "-", "-", "-", "-", r.failed ? "FAIL" : "-"});
      continue;
    }
    const trace::Breakdown& b = r.breakdown;
    cum.add_row({m->name(), Table::num(b.dtoh, 2), Table::num(b.htod, 2),
                 Table::num(b.ptop, 2), Table::num(b.kernel, 2),
                 Table::num(b.total(), 2)});
    const double tot = b.total();
    norm.add_row({m->name(), Table::num(100 * b.dtoh / tot, 1),
                  Table::num(100 * b.htod / tot, 1),
                  Table::num(100 * b.ptop / tot, 1),
                  Table::num(100 * b.kernel / tot, 1),
                  Table::num(100 * b.transfers() / tot, 1)});
  }
  std::printf("Cumulative execution time (all 8 GPUs):\n%s\n",
              cum.to_text().c_str());
  std::printf("Normalized ratio over total execution:\n%s\n",
              norm.to_text().c_str());
  std::printf(
      "Paper reference: XKBlas spends ~25.4%% of GPU time in data "
      "transfers, Chameleon Tile ~41.2%%; the others more.\n");
  return 0;
}
