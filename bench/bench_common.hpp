// Shared helpers for the figure/table regeneration binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "baselines/library_model.hpp"
#include "util/table.hpp"

namespace xkb::bench {

/// Matrix dimensions swept by the paper's figures (up to ~57k).
inline std::vector<std::size_t> paper_sizes() {
  return {4096, 8192, 16384, 24576, 32768, 40960, 49152, 57344};
}

/// Like the paper: report the best performance over the candidate tile
/// sizes for each (library, routine, N) point.
inline baselines::BenchResult best_over_tiles(
    baselines::LibraryModel& model, baselines::BenchConfig cfg,
    const std::vector<std::size_t>& tiles = {1024, 2048, 4096}) {
  baselines::BenchResult best;
  bool have = false;
  for (std::size_t ts : tiles) {
    if (ts * 2 > cfg.n) continue;  // need some parallelism
    const double nt = static_cast<double>(cfg.n) / ts;
    if (nt * nt * nt > 40000) continue;  // bound simulation cost
    cfg.tile = ts;
    baselines::BenchResult r = model.run(cfg);
    if (!r.supported || r.failed) {
      if (!have) best = r;
      continue;
    }
    if (!have || r.tflops > best.tflops) {
      best = r;
      have = true;
    }
  }
  if (!have && best.error.empty() && best.supported) {
    cfg.tile = cfg.n / 2 ? cfg.n / 2 : cfg.n;
    best = model.run(cfg);
  }
  return best;
}

inline std::string tf(const baselines::BenchResult& r) {
  if (!r.supported) return "-";
  if (r.failed) return "FAIL";
  return Table::num(r.tflops, 2);
}

}  // namespace xkb::bench
