// svc_soak: an open loop in virtual time.  A seeded three-tenant Poisson
// stream drives svc::Service on the DGX-1 at a small ladder of offered
// rates, then one degraded soak at the nominal rate kills a device and
// browns a link out (service_bench --degrade-gate's plan).
//
// Arrivals are engine events, so the generator is never late and host
// speed cannot change a virtual result.  Host time grows faster than soak
// length (the cache resident set grows), so every rung is sized by job
// count as well as by rate.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "runtime/runtime.hpp"
#include "svc/arrivals.hpp"
#include "svc/svc.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace rt = xkb::rt;
namespace svc = xkb::svc;
namespace wl = xkb::wl;

/// Offered rate per tenant (jobs per virtual second) and arrivals of one
/// soak.  The service saturates near 600 completed jobs/s in all.
struct Rung {
  double rate_hz;
  std::size_t jobs;
};
/// The ladder offers 150, 300 and 900 jobs/s in all.  Across seeds the
/// SLO share reads 0.89-0.97 at 300, and at 900 it reads at most 0.75 or
/// the queue keeps growing, so the highest passing rung does not depend on
/// the seed.  Host time grows quadratically with soak length (the cache
/// resident set grows), so the soaks stay short.
const Rung kLadder[] = {{50, 300}, {100, 300}, {300, 300}};
/// Each rung runs this many independent arrival streams and pools their
/// SLO shares, so a rung's verdict and the completed-flops rate depend
/// less on one stream's job mix (a composition job carries ten times the
/// flops of the others).
constexpr int kStreamsPerRung = 3;
const Rung kNominal = {100, 600};

/// A rung meets the SLO when this share of its arrivals completes within
/// its tenant's deadline, measured from arrival.
constexpr double kSloShare = 0.85;

// The tenant mix of tools/service_bench with a deadline on every tier:
// interactive work with tight deadlines and top priority, a batch tier,
// and bulk traffic that brownout sheds first.
std::vector<svc::TenantSpec> tenants() {
  struct Row {
    const char* name;
    int priority;
    double share;
    double deadline;
  };
  const Row rows[] = {{"interactive", 2, 3.0, 10e-3},
                      {"batch", 1, 2.0, 50e-3},
                      {"bulk", 0, 1.0, 200e-3}};
  std::vector<svc::TenantSpec> ts;
  for (const Row& row : rows) {
    svc::TenantSpec t;
    t.name = row.name;
    t.priority = row.priority;
    t.share = row.share;
    t.deadline = row.deadline;
    t.queue_cap = 64;
    t.max_in_system = 96;
    ts.push_back(std::move(t));
  }
  return ts;
}

struct SoakOut {
  double span = 0.0;
  double flops_done = 0.0;  ///< flops of the completed jobs
  double slo_frac = 0.0;
  double goodput = 0.0;
  bool queue_grows = false;
  std::string digest;
  std::string error;
};

using Graphs =
    std::map<std::string, std::shared_ptr<const wl::WorkloadGraph>>;

// A service over a fresh DGX-1 platform with every arrival of `trace`
// scheduled as an observable engine event.
struct ServiceRun {
  ServiceRun(svc::ArrivalTrace tr, Graphs g, xkb::fault::FaultPlan plan,
             std::vector<double>* submit_us)
      : trace(std::move(tr)),
        graphs(std::move(g)),
        inj(plan.empty() ? nullptr
                         : std::make_unique<xkb::fault::Injector>(plan)),
        plat(xkb::topo::Topology::dgx1(), rt::PerfModel{}, options()),
        runtime((plat.set_fault(inj.get()), plat),
                std::make_unique<rt::OwnerComputesScheduler>(),
                rt::RuntimeOptions{}),
        service(runtime) {
    hash_events(plat.engine(), hash);
    for (const svc::TenantSpec& t : trace.tenants) service.add_tenant(t);
    for (const svc::Arrival& a : trace.arrivals)
      job_flops[a.job] = graphs.at(a.spec)->total_flops();
    depth.reserve(trace.arrivals.size());
    for (const svc::Arrival& a : trace.arrivals) {
      svc::JobSpec js;
      js.name = a.job;
      js.graph = graphs.at(a.spec);
      js.deadline = a.deadline;
      plat.engine().schedule_at(a.t, [this, submit_us, t = a.tenant,
                                      js = std::move(js)] {
        if (submit_us) {
          const double t0 = now_s();
          service.submit(t, js);
          submit_us->push_back(1e6 * (now_s() - t0));
        } else {
          service.submit(t, js);
        }
        depth.push_back(static_cast<double>(service.queued()));
      });
    }
  }
  ServiceRun(const ServiceRun&) = delete;
  ServiceRun& operator=(const ServiceRun&) = delete;

  static rt::PlatformOptions options() {
    rt::PlatformOptions popt;
    popt.functional = false;
    return popt;
  }

  svc::ArrivalTrace trace;
  Graphs graphs;
  std::unique_ptr<xkb::fault::Injector> inj;
  rt::Platform plat;
  rt::Runtime runtime;  ///< built after the injector is attached
  svc::Service service;
  /// Queue depth seen by each arrival, to tell a steady queue from one
  /// that keeps growing.
  std::vector<double> depth;
  std::map<std::string, double> job_flops;  ///< by job label
  std::uint64_t hash = kFnvBasis;
};

class SvcSoak : public Workload {
 public:
  explicit SvcSoak(std::uint64_t seed) : seed_(seed) {}

  Rep rep(Tracer& tr) override {
    Rep r;
    std::vector<double> submit_us;
    stats_ = {};
    double max_rate = 0.0, flops = 0.0, span = 0.0;
    bool ladder_ok = true;
    std::uint64_t stream = 0;
    for (const Rung& rung : kLadder) {
      double slo = 0.0;
      bool grows = false;
      for (int k = 0; k < kStreamsPerRung; ++k) {
        const SoakOut o = soak(rung, ++stream, false, tr, r, submit_us);
        flops += o.flops_done;
        span += o.span;
        slo += o.slo_frac / kStreamsPerRung;
        grows = grows || o.queue_grows;
        char name[48];
        std::snprintf(name, sizeof name, "soak %g jobs/s #%d",
                      3 * rung.rate_hz, k);
        r.ops.push_back({name, o.digest, o.error});
      }
      // The first rung that misses the SLO ends the ladder's count.
      ladder_ok = ladder_ok && slo >= kSloShare && !grows;
      if (ladder_ok) max_rate = 3 * rung.rate_hz;
    }
    const SoakOut d = soak(kNominal, ++stream, true, tr, r, submit_us);
    r.ops.push_back({"degraded soak", d.digest, d.error});
    flops += d.flops_done;
    span += d.span;

    r.virt["virtual_tflops"] = flops / span / 1e12;
    r.virt["svc_goodput_jps"] = d.goodput;
    r.virt["svc_slo_frac"] = d.slo_frac;
    r.virt["svc_max_rate_jps"] = max_rate;
    if (tr.on()) {
      auto& L = r.layer;
      L["svc.submit_us_p50"] = percentile(submit_us, 50);
      L["svc.submit_us_p99"] = percentile(submit_us, 99);
      L["wl.build_s"] = tr.seconds("wl.build");
      L["svc.admitted"] = static_cast<double>(stats_.admitted);
      L["svc.rejected_queue_full"] =
          static_cast<double>(stats_.rejected_queue_full);
      L["svc.rejected_brownout"] =
          static_cast<double>(stats_.rejected_brownout);
      L["svc.retries"] = static_cast<double>(stats_.retries);
      L["svc.dead_letters"] = static_cast<double>(stats_.dead_letters);
    }
    return r;
  }

 private:
  // One soak on a fresh platform.  Set-up: arrival generation, graph
  // builds, platform/runtime/service construction and arrival scheduling;
  // timed: Service::drain.
  SoakOut soak(const Rung& rung, std::uint64_t stream, bool degraded,
               Tracer& tr, Rep& r, std::vector<double>& submit_us) {
    SoakOut out;
    try {
      std::unique_ptr<ServiceRun> run;
      {
        Timed t(r.setup_s, tr, "svc.setup");
        svc::ArrivalTrace trace =
            svc::poisson_trace(xkb::Rng(seed_).substream(stream).next_u64(),
                               tenants(), rung.rate_hz, rung.jobs);
        Graphs graphs;
        {
          Tracer::Scope build(tr, "wl.build");
          for (const svc::Arrival& a : trace.arrivals) {
            auto& g = graphs[a.spec];
            if (!g)
              g = std::make_shared<const wl::WorkloadGraph>(
                  wl::build(wl::WorkloadSpec::parse(a.spec)));
          }
        }
        xkb::fault::FaultPlan plan;
        if (degraded) plan = degrade_plan(trace.arrivals.back().t);
        run = std::make_unique<ServiceRun>(std::move(trace), std::move(graphs),
                                           std::move(plan),
                                           tr.on() ? &submit_us : nullptr);
      }
      {
        Timed t(r.wall_s, tr, "runtime.run");
        out.span = run->service.drain();
      }
      r.runs.add(run->plat, run->runtime);
      summarize(*run, out);
      if (degraded) {
        // Graceful degradation: the device died and every admitted job
        // still ended in a terminal state.
        const svc::ServiceStats& st = run->service.stats();
        if (run->plat.num_alive_gpus() != run->plat.num_gpus() - 1)
          out.error = "the device kill did not take effect";
        else if (st.completed + st.dead_letters !=
                 run->service.records().size())
          out.error = "a job ended in a non-terminal state";
        if (tr.on()) degraded_layer(*run, out.span, r.layer);
      }
      Timed t(r.wall_s, tr, "runtime.teardown");
      run.reset();
    } catch (const std::exception& ex) {
      out.error = ex.what();
    }
    return out;
  }

  // Mid-soak whole-GPU loss plus a deep brownout on a busy link, timed off
  // the trace itself so the plan follows the stream.
  xkb::fault::FaultPlan degrade_plan(double horizon) const {
    xkb::fault::FaultPlan plan;
    xkb::fault::FaultEvent kill;
    kill.kind = xkb::fault::FaultKind::kDeviceFail;
    kill.t = 0.4 * horizon;
    kill.a = 1;
    plan.events.push_back(kill);
    xkb::fault::FaultEvent brown;
    brown.kind = xkb::fault::FaultKind::kBrownout;
    brown.t = 0.5 * horizon;
    brown.a = 0;
    brown.b = 2;
    brown.fraction = 0.1;
    brown.duration = 0.2 * horizon;
    plan.events.push_back(brown);
    plan.seed = seed_;
    return plan;
  }

  void summarize(const ServiceRun& run, SoakOut& out) {
    const svc::ServiceStats& st = run.service.stats();
    std::size_t met = 0;
    std::uint64_t rec_hash = kFnvBasis;
    for (const svc::JobRecord& j : run.service.records()) {
      if (j.state == svc::JobState::kCompleted) {
        out.flops_done += run.job_flops.at(j.name);
        if (j.finished - j.arrival <= run.trace.tenants.at(j.tenant).deadline)
          ++met;
      }
      rec_hash = fnv_fold(rec_hash, j.id);
      rec_hash = fnv_fold(rec_hash, std::bit_cast<std::uint64_t>(j.arrival));
      rec_hash = fnv_fold(rec_hash, std::bit_cast<std::uint64_t>(j.finished));
    }
    const auto arrivals = static_cast<double>(run.trace.arrivals.size());
    out.slo_frac = static_cast<double>(met) / arrivals;
    out.goodput = static_cast<double>(st.completed) / out.span;

    const std::vector<double>& depth = run.depth;
    const std::size_t half = depth.size() / 2;
    double first = 0.0, second = 0.0;
    for (std::size_t i = 0; i < depth.size(); ++i)
      (i < half ? first : second) += depth[i];
    first /= static_cast<double>(half);
    second /= static_cast<double>(depth.size() - half);
    out.queue_grows = second > 1.5 * first + 2.0;

    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "%016llx %016llx %.17g sub %llu adm %llu done %llu rej %llu/%llu/%llu "
        "expired %llu retry %llu dead %llu",
        static_cast<unsigned long long>(run.hash),
        static_cast<unsigned long long>(rec_hash), out.span,
        static_cast<unsigned long long>(st.submitted),
        static_cast<unsigned long long>(st.admitted),
        static_cast<unsigned long long>(st.completed),
        static_cast<unsigned long long>(st.rejected_queue_full),
        static_cast<unsigned long long>(st.rejected_quota),
        static_cast<unsigned long long>(st.rejected_brownout),
        static_cast<unsigned long long>(st.expired),
        static_cast<unsigned long long>(st.retries),
        static_cast<unsigned long long>(st.dead_letters));
    out.digest = buf;

    stats_.admitted += st.admitted;
    stats_.rejected_queue_full += st.rejected_queue_full;
    stats_.rejected_brownout += st.rejected_brownout;
    stats_.retries += st.retries;
    stats_.dead_letters += st.dead_letters;
  }

  static void degraded_layer(ServiceRun& run, double span,
                          std::map<std::string, double>& L) {
    rt::Runtime& runtime = run.runtime;
    rt::Platform& plat = run.plat;
    const rt::TransferStats& ts = runtime.data_manager().stats();
    L["fault.transfer_aborts"] = static_cast<double>(ts.transfer_aborts);
    L["fault.transfer_retries"] = static_cast<double>(ts.transfer_retries);
    L["fault.waiter_replans"] = static_cast<double>(ts.waiter_replans);
    L["fault.task_remaps"] = static_cast<double>(runtime.task_remaps());
    L["fault.task_replays"] = static_cast<double>(runtime.task_replays());
    double sum = 0.0, lo = 1.0;
    for (int g = 0; g < plat.num_gpus(); ++g) {
      const double u = plat.trace().breakdown(g).kernel / span;
      sum += u;
      lo = std::min(lo, u);
    }
    L["svc.util_mean"] = sum / plat.num_gpus();
    L["svc.util_min_gpu"] = lo;
  }

  std::uint64_t seed_;
  svc::ServiceStats stats_;  ///< summed over the soaks of one repetition
};

}  // namespace

std::unique_ptr<Workload> make_svc_soak(std::uint64_t seed) {
  return std::make_unique<SvcSoak>(seed);
}

}  // namespace perfbench
