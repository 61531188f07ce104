// The fault Injector arms a FaultPlan against a simulation engine and
// answers, at transfer-issue time, "does this copy fail?".
//
// Layering: xkb::fault sits below the runtime (runtime links against it),
// so the injector never names Platform or Runtime.  Instead the platform
// and runtime bind callbacks -- the platform for link mutations, the
// runtime for device failure -- and the injector schedules *silent*
// engine events that invoke them.  Silent events keep the observable
// event stream (and the xkb::check hash) untouched by fault machinery
// itself; only the fault's *consequences* (slower transfers, re-plans,
// remaps) show up, which is exactly what the healed-before-use
// equivalence tests pin down.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "util/annotations.hpp"
#include "util/rng.hpp"

namespace xkb::fault {

class Injector {
 public:
  struct Hooks {
    std::function<void(int, int, double)> brownout;  ///< (a, b, fraction)
    std::function<void(int, int)> restore;           ///< heal a<->b
    std::function<void(int, int)> link_down;         ///< demote a<->b
    std::function<void(int)> device_fail;
    /// Map a .tpo device name to its index (-1 = unknown).  Bound by
    /// Platform::set_fault; arm() needs it only for plans that use
    /// symbolic endpoints.
    std::function<int(const std::string&)> resolve_device;
  };

  struct Counters {
    std::size_t brownouts = 0;
    std::size_t heals = 0;
    std::size_t link_downs = 0;
    std::size_t device_fails = 0;
    std::size_t injected_transfer_failures = 0;
  };

  explicit Injector(FaultPlan plan)
      : plan_(std::move(plan)), rng_(plan_.seed) {}

  const FaultPlan& plan() const { return plan_; }
  RetryPolicy& retry() { return retry_; }
  const RetryPolicy& retry() const { return retry_; }

  /// Bind the platform-side link hooks (brownout/restore/link_down) --
  /// called by Platform::set_fault -- and the runtime-side device_fail
  /// hook -- called by the Runtime constructor.  Hooks accumulate: a
  /// later bind overwrites only the non-null members.
  void bind(Hooks hooks);

  /// Schedule every plan event as a silent engine event (idempotent).
  /// Throws FaultError if the plan needs a hook nobody bound (e.g. a
  /// device-fail event with no runtime attached).
  void arm(sim::Engine& eng, int num_gpus);
  bool armed() const { return armed_; }

  /// Decide whether the transfer being issued right now fails in flight.
  /// Consumes at most one matching pending `xfail` event (wildcards
  /// match any endpoint; d2h matches dst -1) and otherwise draws from
  /// the seeded probability stream.  Deterministic because transfer
  /// issue order is.
  bool should_fail_transfer(trace::TransferKind k, int src, int dst,
                            sim::Time now);

  const Counters& counters() const { return counters_; }

  /// Targeted xfail events nobody consumed (plan aimed at a transfer
  /// that never happened) -- surfaced in reports so a plan that silently
  /// misses is visible.
  std::size_t unconsumed_transfer_faults() const;

  /// Injector-side counters as a JSON object (the chaos driver merges
  /// this with runtime recovery statistics).
  std::string counters_json() const;

 private:
  // Silent-lane trigger bodies, one per fault class.  arm() schedules them
  // via schedule_silent_*; the XKB_SILENT annotation lets the xkb-tidy
  // silent-lane check prove they never touch observable state (trace,
  // metrics, observer, observable-lane scheduling) directly -- the
  // bit-invisible no-op-fault guarantee.  Consequences become observable
  // only through the bound hooks, at the platform/runtime layer.
  void fire_brownout(const FaultEvent& e);
  void fire_heal(const FaultEvent& e);
  void fire_link_down(const FaultEvent& e);
  void fire_device_fail(const FaultEvent& e);

  FaultPlan plan_;
  Rng rng_;
  RetryPolicy retry_;
  Hooks hooks_;
  Counters counters_;
  std::vector<char> xfail_consumed_;  // parallel to plan_.events
  bool armed_ = false;
};

}  // namespace xkb::fault
