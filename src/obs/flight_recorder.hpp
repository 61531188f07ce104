// Crash flight recorder: the last N observable events -- kernels and
// transfers from the trace, source decisions and fault-lane triggers from
// obs -- dumped together with a ledger snapshot when a run dies: watchdog
// stall, checker violation, or an exception unwinding out of Engine::run.
// A chaos_matrix failure then reads as a last-seconds timeline ("brownout
// hit p2p1-0, three transfers queued behind it, gpu1's fetch picked
// wait-device, nothing progressed since t=...") instead of a bare hash
// mismatch or a StuckProgress one-liner.
//
// Nothing is recorded for it while the run is alive: the timeline is
// derived at the failure site from the records obs and the trace already
// keep, merged by virtual time (a kernel or transfer stands at its end,
// a decision or fault mark at its instant), and only the last N kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace xkb::obs {

struct FlightEntry {
  enum class Kind : std::uint8_t {
    kKernel,    ///< kernel completion (a = device)
    kTransfer,  ///< h2d/d2d/d2h completion (a = src or -1 host, b = dst)
    kDecision,  ///< choose_source pick (a = picked_dev, b = dst)
    kFault,     ///< fault-plan trigger or recovery action
  };

  sim::Time t = 0.0;
  Kind kind = Kind::kKernel;
  int a = -1, b = -1;
  std::uint64_t handle = 0;
  std::size_t bytes = 0;
  std::string tag;  ///< kernel label / transfer class / pick / fault kind
};

const char* to_string(FlightEntry::Kind k);

/// Entries a dump keeps.
inline constexpr std::size_t kFlightCapacity = 256;

/// The last kFlightCapacity entries of the attached trace, the decisions
/// and the fault marks of `o`, oldest first (non-decreasing t; ties keep
/// trace, decision, fault order, each stream in its own order).  Built only
/// at a failure site; it holds one entry per record while it sorts.
std::vector<FlightEntry> flight_timeline(const Observability& o);

/// The dump artifact (schema xkb.obs.flight/1): reason, the number of
/// entries seen and retained, the timeline, and the caller-built ledger
/// snapshot embedded verbatim under "ledger" (pass "null" when no ledger
/// is available).
std::string flight_dump_json(const Observability& o, const std::string& reason,
                             const std::string& ledger_snapshot_json);

}  // namespace xkb::obs
