// xkb::check -- an opt-in validation layer for the simulated runtime.
//
// The checker observes every semantically relevant event of a run (task
// graph construction, kernel issue/finish, replica transitions, transfers,
// evictions, engine events) and verifies three families of properties:
//
//  1. Happens-before race detection: vector clocks are propagated along
//     task-dependence edges, stream/lane FIFO order and transfer
//     completions; two conflicting accesses (R/W or W/W) to the same tile
//     that are not ordered by those edges are reported as a race.  This
//     catches scheduler/dependency bugs that otherwise only show up as a
//     wrong makespan (or wrong bits in functional mode).
//  2. Coherence-protocol invariants of the MSI-like replica state machine:
//     every read observes the latest version, `choose_source` never selects
//     an invalid or stale replica, optimistic forwarding only chains on a
//     genuinely in-flight reception, at most one dirty replica per tile,
//     eviction never drops the last copy of the current version, and the
//     TransferStats counters reconcile with the observed event stream
//     (e.g. `optimistic_waits == 0` under the ablation configurations).
//  3. Progress and determinism: after the engine drains, every submitted
//     task must have completed -- if not, the wait-for graph is dumped and
//     searched for cycles (deadlock) -- and an FNV-1a hash of the full
//     event stream is exposed so two runs of the same configuration can be
//     asserted bit-identical.
//
// The checker depends only on `mem` and `sim` (and, through `mem`, on the
// data-path vocabulary of trace/trace.hpp); the runtime layers feed it
// events through the hooks below.  It is always compiled and costs one
// null-pointer test per hook when disabled.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/vector_clock.hpp"
#include "mem/handle.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace xkb::check {

/// Test-only fault injection, honoured by the runtime only when a checker
/// is attached.  Used by the checker's own mutant tests: a checker that
/// cannot fail its mutants proves nothing.
struct Faults {
  /// Swallow the completion of this task id: successors never run
  /// (simulates a dropped completion event; the progress auditor must
  /// report the stuck tasks).
  std::uint64_t drop_completion_task = 0;
  /// Skip the dependence edge pred -> succ at submit time (simulates a
  /// reordered/lost dependence; the race detector must report the
  /// unordered conflicting accesses).
  std::uint64_t skip_edge_pred = 0;
  std::uint64_t skip_edge_succ = 0;
};

struct CheckConfig {
  bool enabled = false;
  bool races = true;      ///< vector-clock happens-before checking
  bool coherence = true;  ///< replica-protocol invariants
  bool progress = true;   ///< completion audit + wait-for cycle detection
  /// Violations beyond this many are counted but not recorded verbatim.
  std::size_t max_recorded = 64;
  Faults faults;  ///< test-only
};

enum class ViolationKind : std::uint8_t {
  kRace,
  kCoherence,
  kStats,
  kProgress,
};

const char* to_string(ViolationKind k);

struct Violation {
  ViolationKind kind = ViolationKind::kCoherence;
  std::string message;
};

/// Mirror of the runtime counters the checker reconciles against
/// (rt::TransferStats plus the task counters).
struct StatsView {
  std::size_t h2d = 0, d2h = 0, d2d = 0;
  std::size_t optimistic_waits = 0, forced_waits = 0;
  std::size_t submitted = 0, completed = 0;
  std::size_t transfer_aborts = 0;  ///< fault-injected/recovery aborts
};

class Checker {
 public:
  Checker(const CheckConfig& cfg, int num_gpus, int kernel_streams,
          trace::SourcePolicy policy, bool optimistic_d2d);

  const CheckConfig& config() const { return cfg_; }
  const Faults& faults() const { return cfg_.faults; }

  // --- task-graph / execution events (fed by rt::Runtime) ---
  void on_submit(
      std::uint64_t task, std::string label,
      const std::vector<std::pair<const mem::DataHandle*, trace::Access>>&
          accesses,
      std::vector<std::uint64_t> preds);
  /// Kernel handed to stream `lane` of `dev` (lane FIFO order == issue
  /// order).  Performs the read-side race + staleness checks.
  void on_kernel_issue(std::uint64_t task, int dev, int lane, sim::Time start,
                       sim::Time end);
  /// Kernel (or kernel-less placement task) finished on `dev`: performs the
  /// write-side race checks and records the write's vector clock.
  void on_task_finish(std::uint64_t task, int dev, sim::Time t);
  /// Task fully completed (successors about to be notified).
  void on_task_complete(std::uint64_t task, sim::Time t);

  // --- replica-protocol events (fed by rt::DataManager) ---
  void on_source_choice(const mem::DataHandle* h, int dst, trace::Pick pick,
                        int src, bool forced);
  void on_transfer_issue(trace::TransferKind k, const mem::DataHandle* h,
                         int src, int dst, sim::Time start, sim::Time end);
  /// A replica reception completed on `dev` (kInFlight -> kValid).
  void on_arrival(const mem::DataHandle* h, int dev, sim::Time t);
  void on_mark_written(const mem::DataHandle* h, int dev, sim::Time t);
  void on_host_write(const mem::DataHandle* h);
  void on_host_flush_issue(const mem::DataHandle* h, int src,
                           std::uint64_t version);
  void on_host_flush_done(const mem::DataHandle* h, int src, bool stale,
                          std::uint64_t version, sim::Time t);
  /// A resident replica was evicted from `dev` (already released).
  void on_evict(const mem::DataHandle* h, int dev, bool was_dirty);

  // --- fault-recovery events (fed by rt::DataManager / rt::Runtime) ---
  /// An issued transfer aborted before completion (injected failure, or
  /// cancelled because an endpoint died).  `dst` is -1 for D2H flushes.
  /// `attempts`/`cap` drive the bounded-retries invariant (0/0 for aborts
  /// that are not retries of the same reception, e.g. device-loss purges).
  void on_transfer_abort(trace::TransferKind k, const mem::DataHandle* h,
                         int src, int dst, std::size_t attempts,
                         std::size_t cap);
  /// GPU `dev` was blacklisted.  From here on, no source choice, D2D issue
  /// or kernel may touch it.
  void on_device_failure(int dev);
  /// The replica of `h` on (failed) `dev` was purged.  If it was the last
  /// holder of the current version, the handle enters the needs-recovery
  /// set: a matching on_replay must follow, or finalize reports the loss.
  void on_replica_lost(const mem::DataHandle* h, int dev, bool was_dirty);
  /// A surviving replica on `dev` was promoted to dirty, replacing a dirty
  /// copy lost to a device failure.  It must hold the current version.
  void on_promote(const mem::DataHandle* h, int dev);
  /// The producer of `h`'s lost dirty replica was resubmitted as `task`.
  void on_replay(const mem::DataHandle* h, std::uint64_t task);
  /// A not-yet-finished task migrated off a failed device; its recorded
  /// (now cancelled) reads are dropped so the re-execution re-orders them.
  void on_task_remap(std::uint64_t task, int from_dev, int to_dev);

  // --- engine events (fed by sim::Engine's observer hook) ---
  void on_engine_event(sim::Time t, std::uint64_t seq);

  /// End-of-run audit: counter reconciliation, completion/progress check
  /// with wait-for cycle detection, final protocol scan (dirty uniqueness,
  /// pin leaks, data loss).
  void finalize(const StatsView& s);

  bool ok() const { return total_violations_ == 0; }
  std::size_t total_violations() const { return total_violations_; }
  const std::vector<Violation>& violations() const { return violations_; }
  /// FNV-1a 64-bit hash over the observed event stream.
  std::uint64_t event_hash() const { return hash_; }
  /// Human-readable summary of all recorded violations (empty string when
  /// the run is clean).
  std::string report() const;

 private:
  struct AccessRec {
    const mem::DataHandle* handle = nullptr;
    trace::Access mode = trace::Access::kR;
  };
  struct TaskInfo {
    bool submitted = false;  ///< slot holds a task (ids index tasks_)
    bool vc_set = false;
    bool completed = false;
    std::uint32_t lane = 0;  ///< lane of the stamp, valid once `vc_set`
    std::string label;
    std::vector<AccessRec> accesses;
    std::vector<std::uint64_t> preds;
    VectorClock vc;  ///< the task's event clock, valid once `vc_set`
    /// Join of the clocks of every task already completed when this one was
    /// submitted (null: none had).  Tasks that finished before `t` even
    /// existed happen-before everything `t` does -- the runtime rightly
    /// creates no dependence edge for them (multi-phase runs: distribute,
    /// run, then emit compute), so the edge has to come from the submit
    /// point itself.  Snapshotted at submit, NOT read at stamp time: by
    /// stamp time concurrent tasks may have completed, and joining those
    /// would mask real races.  Tasks submitted between two completions
    /// share one snapshot.
    std::shared_ptr<const VectorClock> submit_vc;
  };
  /// One access as a FastTrack epoch (Flanagan & Freund, PLDI 2009): the
  /// accessing task and its own (lane, clock) component.  A lane value is
  /// minted by exactly one stamp, and every clock that holds it or a later
  /// value on that lane has joined the stamping task's full clock, so the
  /// access happens-before an event with clock V iff clock <= V.at(lane).
  struct Epoch {
    std::uint64_t task = 0;  ///< 0: no access recorded
    std::uint64_t clock = 0;
    std::uint32_t lane = 0;
    bool before(const VectorClock& v) const { return clock <= v.at(lane); }
  };
  static constexpr std::uint64_t kNoVersion = ~0ull;  ///< never held a copy
  /// Shadow state of one device for one tile.
  struct DevShadow {
    int dev = 0;
    std::uint64_t version = kNoVersion;
    std::uint64_t in_version = kNoVersion;  ///< carried by the in-flight rx
    VectorClock in_vc;                      ///< HB carried by the in-flight rx
    VectorClock arrival_vc;                 ///< HB carried by the arrivals
  };
  /// Shadow replica bookkeeping of one tile.  Device state exists only for
  /// devices that touched the tile, sorted by device id like
  /// mem::ReplicaMap; an absent device reads as never holding a copy.
  struct Shadow {
    const mem::DataHandle* handle = nullptr;  ///< null: slot never used
    std::uint64_t version = 0;       ///< writes observed so far
    std::uint64_t host_version = 0;  ///< version the host copy holds
    std::vector<DevShadow> devs;
    VectorClock host_vc;  ///< HB carried by the host copy
    Epoch write;          ///< the last write
    std::vector<Epoch> readers;  ///< reads since the last write
    bool d2h_inflight = false;

    DevShadow* find(int dev);
    const DevShadow* find(int dev) const {
      return const_cast<Shadow*>(this)->find(dev);
    }
    /// The device's state, created on first touch.  Inserting may move the
    /// other entries: look any second device up after touching.
    DevShadow& touch(int dev);
    std::uint64_t dev_version(int dev) const {
      const DevShadow* d = find(dev);
      return d ? d->version : kNoVersion;
    }
  };

  Shadow& shadow(const mem::DataHandle* h);
  TaskInfo* task(std::uint64_t id) {
    return id < tasks_.size() && tasks_[id].submitted ? &tasks_[id] : nullptr;
  }
  std::size_t lane_kernel(int dev, int lane) const {
    return 1 + static_cast<std::size_t>(dev) * streams_ +
           static_cast<std::size_t>(lane);
  }
  std::size_t lane_virtual(int dev) const {
    return 1 + static_cast<std::size_t>(gpus_) * streams_ +
           static_cast<std::size_t>(dev);
  }
  VectorClock& lane_clock(std::size_t lane);

  /// Join every happens-before edge into `t`'s clock and stamp it with a
  /// fresh event on `lane` (also advancing the lane clock).
  void stamp(TaskInfo& t, std::size_t lane);
  void check_reads(std::uint64_t id, TaskInfo& t);
  void record_writes(std::uint64_t id, TaskInfo& t, int dev);

  void violation(ViolationKind kind, std::string msg);
  /// Folds each value into the FNV-1a 64 hash, 8 bytes at a time: times
  /// by their bit pattern, everything else converted to 64 bits.
  template <class... V>
  void fold(V... v) {
    ((hash_ = (hash_ ^ bits(v)) * 1099511628211ull), ...);
  }
  template <class V>
  static std::uint64_t bits(V v) {
    if constexpr (std::is_floating_point_v<V>)
      return std::bit_cast<std::uint64_t>(v);
    else
      return static_cast<std::uint64_t>(v);
  }

  /// True when some location (or in-flight reception) still holds the
  /// current version of `h`.
  bool current_version_survives(const mem::DataHandle* h, const Shadow& s,
                                int excluding_dev) const;

  CheckConfig cfg_;
  int gpus_;
  std::size_t streams_;
  trace::SourcePolicy policy_;
  bool optimistic_;

  // Both indexed by id: task and tile ids count up from 1.
  std::vector<TaskInfo> tasks_;
  std::vector<Shadow> shadows_;
  std::vector<VectorClock> lanes_;
  VectorClock completed_vc_;  ///< join of the completed tasks' clocks ...
  std::vector<std::uint64_t> completed_unjoined_;  ///< ... but these
  /// completed_vc_ as last handed to a submit (null: stale or empty).
  std::shared_ptr<const VectorClock> completed_snap_;

  // Observed-event counters, reconciled against StatsView in finalize().
  std::size_t h2d_seen_ = 0, d2h_seen_ = 0, d2d_seen_ = 0;
  std::size_t arrivals_ = 0;
  std::size_t optimistic_seen_ = 0, forced_seen_ = 0;

  // Fault-recovery bookkeeping.
  std::size_t rx_aborts_seen_ = 0;   ///< aborted H2D/D2D receptions
  std::size_t d2h_aborts_seen_ = 0;  ///< aborted host flushes
  std::vector<char> failed_devs_;    ///< blacklisted GPUs (empty = none)
  bool device_failed(int dev) const {
    return dev >= 0 && static_cast<std::size_t>(dev) < failed_devs_.size() &&
           failed_devs_[static_cast<std::size_t>(dev)] != 0;
  }
  /// Tiles whose last current copy died with a failed device; must be
  /// resolved by on_replay before finalize.
  std::map<std::uint64_t, std::string> pending_recovery_;  ///< by tile id

  std::vector<Violation> violations_;
  std::size_t total_violations_ = 0;
  std::uint64_t hash_ = 14695981039346656037ull;  // FNV-1a offset basis
};

}  // namespace xkb::check
