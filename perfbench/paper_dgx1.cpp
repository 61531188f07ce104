// paper_dgx1: the paper's own evaluation on the built-in DGX-1.
//
//   * the Fig. 5 library matrix: every library model on each of the six
//     paper routines it supports, data-on-host, N=16384, tile 1024;
//   * the XKBlas ablations no-heur, no-topo and both, on the same six;
//   * one data-on-device point (XKBlas GEMM);
//   * one capacity-pressure point: XKBlas GEMM N=32768, tile 2048, with
//     2 GiB per GPU (bench/ext_ablations' cache-pressure case).
//
// At this size the dmdas rows (Chameleon) and the owner-computes and
// static rows each take about half of the host time; at N=32768 the
// Chameleon GEMM alone would take 2.3 s against XKBlas's 0.1 s.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "librun.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace xb = xkb::baselines;
namespace rt = xkb::rt;
using xkb::Blas3;

constexpr std::size_t kN = 16384;
constexpr std::size_t kTile = 1024;

enum class Sched { kOwner, kDmdas, kStatic };

struct Entry {
  std::string name;
  xb::ModelSpec spec;
  xb::BenchConfig cfg;
  Sched sched = Sched::kOwner;
  bool xkblas = false;  ///< full XKBlas policy: counts in virtual_tflops
};

class PaperDgx1 : public Workload {
 public:
  PaperDgx1() {
    const Blas3 routines[] = {Blas3::kGemm, Blas3::kSymm, Blas3::kSyr2k,
                              Blas3::kSyrk, Blas3::kTrmm, Blas3::kTrsm};
    auto models = xb::all_models();
    models.push_back(xb::make_xkblas(rt::HeuristicConfig::no_heuristic(),
                                     " no-heur"));
    models.push_back(xb::make_xkblas(
        rt::HeuristicConfig{rt::SourcePolicy::kFirstValid, true},
        " no-topo"));
    models.push_back(xb::make_xkblas(
        rt::HeuristicConfig::no_heuristic_no_topo(), " no-heur+no-topo"));
    for (const auto& m : models) {
      const auto* sm = dynamic_cast<const xb::SpecModel*>(m.get());
      if (!sm) throw std::logic_error(m->name() + " is not a SpecModel");
      for (Blas3 r : routines) {
        if (!m->supports(r)) continue;
        xb::BenchConfig cfg;
        cfg.routine = r;
        cfg.n = kN;
        cfg.tile = kTile;
        add(m->name() + " " + xkb::blas3_name(r), sm->spec(), cfg);
      }
    }
    const xb::ModelSpec xk =
        dynamic_cast<const xb::SpecModel&>(
            *xb::make_xkblas(rt::HeuristicConfig::xkblas()))
            .spec();
    xb::BenchConfig dod;
    dod.n = kN;
    dod.tile = kTile;
    dod.data_on_device = true;
    add("XKBlas GEMM data-on-device", xk, dod);
    xb::BenchConfig cap;
    cap.n = 32768;
    cap.tile = 2048;
    cap.device_capacity = 2ull << 30;
    add("XKBlas GEMM 2GiB/GPU", xk, cap);
  }

  Rep rep(Tracer& tr) override {
    Rep r;
    double flops = 0.0, seconds = 0.0;
    double gemm_xk = 0.0, gemm_ablation = 0.0;
    double sched_s[3] = {0, 0, 0};
    std::size_t sched_tasks[3] = {0, 0, 0};
    seconds_.clear();

    for (const Entry& e : entries_) {
      Op op{e.name, "", ""};
      double secs = 0.0;
      try {
        std::unique_ptr<LibRun> run;
        {
          Timed t(r.setup_s, tr, "runtime.setup");
          run = std::make_unique<LibRun>(e.spec, e.cfg);
        }
        double this_run = 0.0;
        {
          Timed t(this_run, tr, "runtime.run");
          secs = run->run();
        }
        r.wall_s += this_run;

        r.runs.add(run->platform(), run->runtime());
        const auto k = static_cast<int>(e.sched);
        sched_s[k] += this_run;
        sched_tasks[k] += run->runtime().tasks_completed();
        if (e.xkblas) {
          flops += run->flops();
          seconds += secs;
        }
        if (e.name == "XKBlas GEMM") gemm_xk = secs;
        if (e.name == "XKBlas no-heur+no-topo GEMM") gemm_ablation = secs;
        op.digest = run_digest(run->event_hash(), secs);
        Timed t(r.wall_s, tr, "runtime.teardown");
        run.reset();
      } catch (const std::exception& ex) {
        op.error = ex.what();
      }
      seconds_.push_back(secs);
      r.ops.push_back(std::move(op));
    }

    r.virt["virtual_tflops"] = flops / seconds / 1e12;
    r.virt["heuristic_speedup"] = gemm_ablation / gemm_xk;
    Op beats{"XKBlas GEMM beats no-heur+no-topo", "", ""};
    if (!(gemm_xk > 0.0 && gemm_xk < gemm_ablation))
      beats.error = "XKBlas GEMM makespan " + std::to_string(gemm_xk) +
                    " s is not below the ablation's " +
                    std::to_string(gemm_ablation) + " s";
    r.ops.push_back(std::move(beats));

    if (tr.on()) {
      const char* names[3] = {"runtime.owner_us_per_task",
                              "runtime.dmdas_us_per_task",
                              "runtime.static_us_per_task"};
      for (int k = 0; k < 3; ++k)
        r.layer[names[k]] =
            1e6 * sched_s[k] / static_cast<double>(sched_tasks[k]);
    }
    return r;
  }

  // The split run must reproduce the library's own entry point.
  std::vector<Op> verify() override {
    std::vector<Op> ops;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      Op op{e.name + " equals run_with_spec", "", ""};
      try {
        const xb::BenchResult res = xb::run_with_spec(e.spec, e.cfg);
        if (res.failed || res.seconds != seconds_.at(i))
          op.error = "run_with_spec gives " + std::to_string(res.seconds) +
                     " s" + (res.failed ? " (" + res.error + ")" : "") +
                     ", the split run " + std::to_string(seconds_.at(i));
      } catch (const std::exception& ex) {
        op.error = ex.what();
      }
      ops.push_back(std::move(op));
    }
    return ops;
  }

 private:
  void add(std::string name, const xb::ModelSpec& spec,
           const xb::BenchConfig& cfg) {
    Entry e;
    e.name = std::move(name);
    e.spec = spec;
    e.cfg = cfg;
    e.sched = spec.dmdas                 ? Sched::kDmdas
              : spec.static_block_cyclic ? Sched::kStatic
                                         : Sched::kOwner;
    e.xkblas = spec.name == "XKBlas";
    entries_.push_back(std::move(e));
  }

  std::vector<Entry> entries_;
  std::vector<double> seconds_;  ///< virtual makespans of the last rep
};

}  // namespace

std::unique_ptr<Workload> make_paper_dgx1(std::uint64_t /*seed*/) {
  return std::make_unique<PaperDgx1>();
}

}  // namespace perfbench
