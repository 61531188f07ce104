// xkb::obs -- the runtime-wide observability layer.
//
// Where xkb::check answers "is the run *correct*", xkb::obs answers "*why*
// is the run this fast (or slow)": which link every transfer crossed and how
// contended it was, which replica candidates the DataManager saw when it
// picked a source, where optimistic D2D forwarding chains flowed, and which
// operations actually bound the makespan (critical_path.hpp).  The paper
// argues its Section III heuristics through exactly this evidence (nvprof
// class breakdowns, Figs. 6-7 and 9); this layer reproduces it from the
// simulator with zero overhead when detached (one null-pointer test per
// observation point, same contract as the checker).
//
// One record per fact: the platform's trace::Trace is the only record of
// transfers and kernels, each transfer stamped with its tile and, for a
// peer copy, the wait it forwards (trace::Chain).  This layer records only
// what the trace lacks:
//   * source decisions (every kWaitDevice decision is one wait),
//   * fault marks and fault/recovery counts,
//   * cache references and evictions,
//   * link probes (which also see the shadow host-link occupancy of
//     cross-switch peer copies),
//   * the per-device ready-queue series.
// Everything else is derived when an artifact is built: the transfer, time
// and byte counters, waits.*, span and the flows count at
// finalize_registry() (reports read the count from there; only the Chrome
// export re-runs derive_flows(), for its arrows), and the crash timeline by
// flight_timeline() (flight_recorder.hpp).  No Platform or DataManager hook
// runs per transfer or per kernel.
//
// Ownership: an Observability instance is created by the driver (bench
// skeleton, CLI, test) and attached to the Platform *before* the Runtime is
// constructed (the runtime caches series pointers for per-event queue-depth
// sampling); attaching also hands it the platform's trace.  It depends only
// on sim/topo/trace -- never on runtime -- so every layer above can feed it
// events; what a decision picked is the shared trace::Pick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/probes.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "trace/trace.hpp"

namespace xkb::obs {

/// Caller-supplied identity of the run a ledger describes.  Lives here
/// (not ledger.hpp) because the Observability instance carries it: crash
/// dumps composed deep inside the runtime -- where lib/routine are not in
/// scope -- reuse the registered identity.
struct LedgerMeta {
  std::string lib;       ///< "xkblas", "nohint-notopo", ...
  std::string routine;   ///< "gemm", "trsm", workload name, ...
  std::string scenario;  ///< "data-on-host" | "data-on-device"
  std::size_t n = 0, tile = 0;
  std::uint64_t seed = 0;
};

}  // namespace xkb::obs

namespace xkb::obs {

/// Opt-in switch carried by BenchConfig (parallel to check::CheckConfig).
struct ObsConfig {
  bool enabled = false;
};

/// How an ensure_valid request hit the software cache.
enum class CacheRef : std::uint8_t { kHit, kMiss, kInFlightHit };

/// One source-selection decision: every replica candidate the policy saw
/// (with its P2P performance rank) and what it picked.  Rendered as instant
/// events in the Chrome export so a questionable source choice can be
/// inspected in context.
struct Decision {
  sim::Time t = 0.0;
  std::uint64_t handle = 0;  ///< tile id
  int dst = -1;              ///< requesting device
  trace::Pick pick = trace::Pick::kHost;
  int picked_dev = -1;  ///< device source/wait target, -1 for host
  bool forced = false;  ///< kWaitDevice only: coherence-forced, not chosen
  struct Candidate {
    int dev = -1;
    int rank = 0;          ///< topo::p2p_perf_rank(dev, dst)
    bool in_flight = false;  ///< optimistic candidate (reception ongoing)
  };
  std::vector<Candidate> candidates;
};

/// A fault-plan event or recovery action, stamped at the virtual instant it
/// applied.  Rendered as instant events on a dedicated "faults" track in
/// the Chrome export and folded into fault.* registry counters.
struct FaultMark {
  sim::Time t = 0.0;
  std::string what;    ///< counter key: brownout, link_down, device_fail, ...
  std::string detail;  ///< human-readable description for the export
};

/// One transfer-forwarding chain (the Section III-C optimistic heuristic,
/// or a coherence-forced wait): the reception `rx` whose completion
/// triggered the chained peer copy `fwd`: records of the trace the flow was
/// derived from, valid while that trace is neither cleared nor grown.
/// Rendered as a flow arrow between the two slices in the Chrome export.
struct Flow {
  const trace::Record* rx = nullptr;
  const trace::Record* fwd = nullptr;
};

/// The forwarding chains of `tr`, in record order: each chained PtoP record
/// links to the last HtoD/PtoP record into (its tile, its source device)
/// before it.  A chained copy with no recorded reception at its source
/// (cleared by a multi-phase run) yields no flow.
std::vector<Flow> derive_flows(const trace::Trace& tr);

class Observability {
 public:
  explicit Observability(int num_gpus);

  int num_gpus() const { return gpus_; }
  MetricsRegistry& metrics() { return reg_; }
  const MetricsRegistry& metrics() const { return reg_; }

  // --- platform hooks ---
  /// Create (and own) a probe for one directed channel; the platform
  /// attaches the returned pointer to the sim resource.
  sim::UsageProbe* make_link_probe(std::string name, std::string cls,
                                   LinkDir dir, int src, int dst);

  // --- data-manager hooks ---
  void on_cache_ref(int dev, CacheRef ref);
  void on_evict(int dev, bool dirty);
  void on_decision(Decision d) { decisions_.push_back(std::move(d)); }

  // --- fault hooks (platform link mutations + runtime recovery) ---
  /// Record a fault instant: `what` is the counter key (becomes the
  /// registry counter "fault.<what>"), `detail` the export description.
  void on_fault_mark(sim::Time t, std::string what, std::string detail);
  /// Count a recovery action without an export-worthy instant (retries,
  /// re-plans, remaps...): bumps "fault.<what>" only.
  void count_fault(const std::string& what, double n = 1.0);

  // --- runtime hooks ---
  /// The ready-queue-depth series of `dev` ("ready.gpu<dev>"); the runtime
  /// caches the pointer and samples it on every scheduling event.
  Series* ready_series(int dev);

  // --- run identity ---
  /// Registered by the bench skeleton before the run so crash dumps
  /// composed inside the runtime (watchdog stall) still name the run.
  void set_ledger_meta(LedgerMeta m) { ledger_meta_ = std::move(m); }
  const LedgerMeta& ledger_meta() const { return ledger_meta_; }

  // --- crash dump (flight_recorder.hpp composes it) ---
  /// Stash the crash dump composed at the failure site (watchdog stall,
  /// checker violation, exception unwind); the bench skeleton retrieves it
  /// after the catch.  First dump wins -- the failure closest to the cause.
  void set_flight_dump(std::string json) {
    if (flight_dump_.empty()) flight_dump_ = std::move(json);
  }
  const std::string& flight_dump() const { return flight_dump_; }

  // --- results ---
  const std::vector<std::unique_ptr<LinkProbe>>& links() const {
    return links_;
  }
  const std::vector<Decision>& decisions() const { return decisions_; }
  const std::vector<FaultMark>& fault_marks() const { return fault_marks_; }
  /// Latest virtual time in the attached trace, the decisions, the fault
  /// marks and the link probes.
  sim::Time span() const;

  /// Reset every measurement in place (probes stay attached, cached series
  /// pointers stay valid).  Called where multi-phase runs clear the trace.
  void clear();

  /// The trace the transfer/time/byte counters are derived from; set by
  /// Platform::set_obs.  Detach (null) before the trace's owner dies: the
  /// derived counters then keep the values of the last finalize.
  void set_trace(const trace::Trace* tr) { trace_ = tr; }
  const trace::Trace* trace() const { return trace_; }

  /// Fold the measured values into the registry under canonical names
  /// (transfers.*, waits.*, cache.*, evict.*, time.*, bytes.*, link.*,
  /// gpu<g>.*, flows, decisions).  transfers.*, time.*, bytes.* and
  /// gpu<g>.time.* come from one pass over the attached trace, attributed
  /// like the trace: HtoD and PtoP to the receiving device, DtoH to the
  /// source, kernels to theirs; flows and the span gauge also need the
  /// trace; waits.* count the kWaitDevice decisions.  Idempotent; call
  /// before exporting the registry.
  void finalize_registry();

 private:
  int gpus_;
  MetricsRegistry reg_;
  std::vector<std::unique_ptr<LinkProbe>> links_;
  std::vector<Decision> decisions_;
  std::vector<FaultMark> fault_marks_;
  std::vector<std::pair<std::string, double>> fault_counts_;  // insertion order
  std::vector<Series*> ready_;  ///< cached "ready.gpu<g>" series
  const trace::Trace* trace_ = nullptr;

  std::string flight_dump_;
  LedgerMeta ledger_meta_;

  std::vector<std::uint64_t> hits_, misses_, inflight_hits_;
  std::vector<std::uint64_t> evict_clean_, evict_dirty_;
};

}  // namespace xkb::obs
