// obs_explain: the explain path behind the obs overhead gate.  XKBlas and
// its no-heur+no-topo ablation run GEMM with obs on; the benchmark then builds
// and renders both run ledgers, diffs them, builds the XKBlas run report
// and exports its Chrome trace.  An obs-off twin of the XKBlas run gives
// obs.overhead_x.
//
// N=16384 with 1024 tiles keeps the obs work dominant: at 512 tiles the
// ablation's cache walk alone would cost 17 s against XKBlas's 2.7 s.
#include <cstdio>
#include <memory>
#include <string>

#include "librun.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace xb = xkb::baselines;
namespace obs = xkb::obs;
namespace rt = xkb::rt;

xb::ModelSpec xkblas_spec(rt::HeuristicConfig heur) {
  return dynamic_cast<const xb::SpecModel&>(*xb::make_xkblas(heur)).spec();
}

class ObsExplain : public Workload {
 public:
  ObsExplain()
      : xk_(xkblas_spec(rt::HeuristicConfig::xkblas())),
        ablation_(xkblas_spec(rt::HeuristicConfig::no_heuristic_no_topo())) {
    cfg_.n = 16384;
    cfg_.tile = 1024;
  }

  Rep rep(Tracer& tr) override {
    Rep r;
    xb::BenchConfig on = cfg_;
    on.obs.enabled = true;

    std::unique_ptr<LibRun> a, b;
    double sa = 0.0, sb = 0.0;
    {
      Timed t(r.setup_s, tr, "runtime.setup");
      a = std::make_unique<LibRun>(xk_, on);
    }
    {
      Tracer::Scope s(tr, "obs.run_on");
      Timed t(r.wall_s, tr, "runtime.run");
      sa = a->run();
    }
    {
      Timed t(r.setup_s, tr, "runtime.setup");
      b = std::make_unique<LibRun>(ablation_, on);
    }
    {
      Timed t(r.wall_s, tr, "runtime.run");
      sb = b->run();
    }

    obs::RunLedger la, lb;
    std::string ja, jb, jd, jr, jc;
    {
      Timed t(r.wall_s, tr, "obs.ledger");
      la = ledger(*a, "XKBlas");
      lb = ledger(*b, "XKBlas no-heur+no-topo");
      ja = obs::ledger_json(la);
      jb = obs::ledger_json(lb);
    }
    {
      Timed t(r.wall_s, tr, "obs.diff");
      jd = obs::diff_json(la, lb, obs::diff_ledgers(la, lb));
    }
    rt::Platform& pa = a->platform();
    {
      Timed t(r.wall_s, tr, "obs.report");
      jr = obs::report_json(obs::build_report(pa.trace(), pa.topology(),
                                              a->obs()),
                            a->obs());
    }
    {
      Timed t(r.wall_s, tr, "trace.export");
      jc = obs::to_chrome_json(pa.trace(), *a->obs());
    }
    const std::size_t records = pa.trace().records().size();
    r.runs.add(pa, a->runtime());
    r.runs.add(b->platform(), b->runtime());
    r.ops.push_back({"XKBlas obs on", run_digest(a->event_hash(), sa), ""});
    r.ops.push_back({"ablation obs on", run_digest(b->event_hash(), sb), ""});
    const std::uint64_t hash_on = a->event_hash();
    const double flops = a->flops();
    {
      Timed t(r.wall_s, tr, "runtime.teardown");
      a.reset();
      b.reset();
    }

    std::unique_ptr<LibRun> c;
    double sc = 0.0;
    {
      Timed t(r.setup_s, tr, "runtime.setup");
      c = std::make_unique<LibRun>(xk_, cfg_);
    }
    {
      Tracer::Scope s(tr, "obs.run_off");
      Timed t(r.wall_s, tr, "runtime.run");
      sc = c->run();
    }
    r.runs.add(c->platform(), c->runtime());
    Op twin{"XKBlas obs off", run_digest(c->event_hash(), sc), ""};
    if (sc != sa || c->event_hash() != hash_on)
      twin.error = "obs changed the run: makespan " + std::to_string(sa) +
                   " s with obs, " + std::to_string(sc) + " s without";
    r.ops.push_back(std::move(twin));
    {
      Timed t(r.wall_s, tr, "runtime.teardown");
      c.reset();
    }

    char buf[128];
    std::snprintf(buf, sizeof buf, "%016llx %016llx %016llx %016llx %016llx",
                  static_cast<unsigned long long>(fnv1a(ja)),
                  static_cast<unsigned long long>(fnv1a(jb)),
                  static_cast<unsigned long long>(fnv1a(jd)),
                  static_cast<unsigned long long>(fnv1a(jr)),
                  static_cast<unsigned long long>(fnv1a(jc)));
    r.ops.push_back({"explain artifacts", buf, ""});
    Op beats{"XKBlas GEMM beats no-heur+no-topo", "", ""};
    if (!(sa < sb))
      beats.error = "XKBlas " + std::to_string(sa) + " s, ablation " +
                    std::to_string(sb) + " s";
    r.ops.push_back(std::move(beats));

    r.virt["virtual_tflops"] = flops / sa / 1e12;
    r.virt["heuristic_speedup"] = sb / sa;
    if (tr.on()) {
      auto& L = r.layer;
      L["obs.overhead_x"] = tr.seconds("obs.run_on") / tr.seconds("obs.run_off");
      L["obs.allocs"] = static_cast<double>(tr.allocs("obs.run_on")) -
                        static_cast<double>(tr.allocs("obs.run_off"));
      L["obs.ledger_s"] = tr.seconds("obs.ledger");
      L["obs.diff_s"] = tr.seconds("obs.diff");
      L["obs.report_s"] = tr.seconds("obs.report");
      L["trace.export_s"] = tr.seconds("trace.export");
      L["obs.ledger_bytes"] = static_cast<double>(ja.size() + jb.size());
      L["trace.records"] = static_cast<double>(records);
    }
    return r;
  }

 private:
  obs::RunLedger ledger(LibRun& run, const char* lib) const {
    run.obs()->finalize_registry();
    obs::LedgerMeta meta;
    meta.lib = lib;
    meta.routine = xkb::blas3_name(cfg_.routine);
    meta.scenario = "data-on-host";
    meta.n = cfg_.n;
    meta.tile = cfg_.tile;
    return obs::build_ledger(run.platform().trace(), run.platform().topology(),
                             run.obs(), run.event_hash(), meta);
  }

  xb::ModelSpec xk_, ablation_;
  xb::BenchConfig cfg_;
};

}  // namespace

std::unique_ptr<Workload> make_obs_explain(std::uint64_t /*seed*/) {
  return std::make_unique<ObsExplain>();
}

}  // namespace perfbench
