// check_matrix: run the full library x routine x scenario benchmark matrix
// under xkb::check and fail on the first violation.  This is the CI gate
// that keeps the simulated runtime honest: every coherence transition, every
// source choice and every dependence edge of every model is validated on
// every push.
//
//   check_matrix                 full matrix at the default size
//   check_matrix --n 16384       bigger tiles-per-matrix sweep
//   check_matrix --obs           also enable xkb::obs on every run and
//                                check that it is passive: each cell's
//                                event hash and virtual makespan must equal
//                                the same cell's obs-off run
//   check_matrix --overhead      also measure checked-vs-unchecked wall
//                                clock on a GEMM workload (exit 4 beyond
//                                2x), and obs-on-vs-off (exit 4 beyond
//                                1.3x)
//   check_matrix --selfprof      also measure the host self-profiler's
//                                attach overhead on the same workload
//                                (exit 4 beyond 1.3x) and verify the
//                                pinned event hash is unchanged with the
//                                profiler attached
//
// The overhead probe interleaves detached and attached runs rep by rep and
// compares per-side medians (bench::probe_overhead), and every ratio is
// printed before any budget fails the run.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "baselines/library_model.hpp"
#include "bench_io.hpp"
#include "util/selfprof.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

constexpr Blas3 kRoutines[] = {
    Blas3::kGemm, Blas3::kSymm, Blas3::kSyrk,  Blas3::kSyr2k, Blas3::kTrmm,
    Blas3::kTrsm, Blas3::kHemm, Blas3::kHerk,  Blas3::kHer2k,
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 8192, tile = 2048;
  bool overhead = false, obs = false, selfprof = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--n" && i + 1 < argc) n = bench::parse_size(arg, argv[++i]);
      else if (arg == "--tile" && i + 1 < argc)
        tile = bench::parse_size(arg, argv[++i]);
      else if (arg == "--overhead") overhead = true;
      else if (arg == "--obs") obs = true;
      else if (arg == "--selfprof") selfprof = true;
      else throw std::invalid_argument("unknown option " + arg);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\nusage: check_matrix [--n N] [--tile T] "
                         "[--obs] [--overhead] [--selfprof]\n", e.what());
    return 2;
  }

  std::size_t runs = 0, skipped = 0, bad_runs = 0, violations = 0,
              obs_changed = 0;
  for (const auto& model : all_models()) {
    for (Blas3 routine : kRoutines) {
      for (bool dod : {false, true}) {
        BenchConfig cfg;
        cfg.routine = routine;
        cfg.n = n;
        cfg.tile = tile;
        cfg.data_on_device = dod;
        cfg.check.enabled = true;
        cfg.obs.enabled = obs;
        if (!model->supports(routine)) {
          ++skipped;
          continue;
        }
        const BenchResult r = model->run(cfg);
        if (!r.supported || r.failed) {
          // Capacity failures (e.g. BLASX beyond 45k) are model behaviour,
          // not checker findings.
          ++skipped;
          continue;
        }
        ++runs;
        if (!r.check_ok) {
          ++bad_runs;
          violations += r.check_violations;
          std::fprintf(stderr,
                       "FAIL %s %s n=%zu %s: %zu violation(s)\n%s\n",
                       model->name().c_str(), blas3_name(routine), n,
                       dod ? "data-on-device" : "data-on-host",
                       r.check_violations, r.check_report.c_str());
        }
        if (obs) {
          // Passivity: attaching obs must not move a single event.
          BenchConfig plain = cfg;
          plain.obs.enabled = false;
          const BenchResult p = model->run(plain);
          if (p.event_hash != r.event_hash || p.seconds != r.seconds) {
            ++obs_changed;
            std::fprintf(stderr,
                         "FAIL %s %s n=%zu %s: obs changed the run (hash "
                         "%016llx vs %016llx, %.17g s vs %.17g s)\n",
                         model->name().c_str(), blas3_name(routine), n,
                         dod ? "data-on-device" : "data-on-host",
                         static_cast<unsigned long long>(r.event_hash),
                         static_cast<unsigned long long>(p.event_hash),
                         r.seconds, p.seconds);
          }
        }
      }
    }
  }
  std::printf("check_matrix: %zu/%zu checked runs clean, %zu skipped "
              "(unsupported/capacity)\n",
              runs - bad_runs, runs, skipped);
  if (obs)
    std::printf("check_matrix: obs passive on %zu/%zu runs (event hash and "
                "makespan equal to the obs-off run)\n",
                runs - obs_changed, runs);
  if (violations || obs_changed) return 3;

  if (!overhead && !selfprof) return 0;
  BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = 16384;
  cfg.tile = 2048;
  if (selfprof) {
    // Hash invariance: the profiler must not perturb the event stream.
    const bench::HashCheck h = bench::selfprof_hash_check(cfg);
    if (!h.ok) {
      std::fprintf(stderr,
                   "self-profiler changed the pinned event hash "
                   "(%016llx vs %016llx)\n",
                   static_cast<unsigned long long>(h.off),
                   static_cast<unsigned long long>(h.on));
      return 4;
    }
    std::printf("self-profiler: event hash invariant (%016llx)\n",
                static_cast<unsigned long long>(h.on));
  }
  // 20 reps per side: one run is ~1 ms of wall clock, and a budget check on
  // single-millisecond samples would be noise-bound.
  constexpr int kReps = 20;
  prof::SelfProfiler sp;
  const bench::Overhead o = bench::probe_overhead(
      cfg, kReps, {overhead, overhead, selfprof ? &sp : nullptr});
  if (!o.ok) {
    std::fprintf(stderr, "overhead probe failed to run\n");
    return 4;
  }
  // The observability layer and the self-profiler must stay near-free:
  // passive probes and counter bumps only, no extra engine events.
  struct Budget {
    const char* mode;
    double ratio, limit;
  };
  const Budget budgets[] = {{"checked", o.check, 2.0},
                            {"obs", o.obs, 1.3},
                            {"selfprof", o.selfprof, 1.3}};
  int rc = 0;
  for (const Budget& b : budgets) {
    if (b.ratio == 0.0) continue;  // not probed
    std::printf("%s-mode overhead: %.2fx (median of %d reps: %.4fs -> "
                "%.4fs)\n",
                b.mode, b.ratio, kReps, o.off_s, o.off_s * b.ratio);
    if (b.ratio > b.limit) {
      std::fprintf(stderr, "%s overhead budget exceeded (limit %.1fx)\n",
                   b.mode, b.limit);
      rc = 4;
    }
  }
  return rc;
}
