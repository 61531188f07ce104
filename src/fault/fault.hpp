// xkb::fault -- deterministic, seeded fault plans.
//
// A FaultPlan is a list of virtual-time fault events (plus an optional
// per-transfer failure probability) that an Injector arms against the
// simulation engine.  Everything is deterministic: events fire at fixed
// virtual times in plan order, and probabilistic transfer failures draw
// from a SplitMix64 stream seeded by the plan, consumed in the (itself
// deterministic) transfer-issue order.  Two runs of the same workload
// under the same plan therefore produce bit-identical observable event
// streams -- the property the xkb::check event-stream hash verifies.
//
// The text format (one directive per line, '#' comments):
//
//   seed 42
//   fail-prob 0.01
//   brownout    <t> <a> <b> <fraction> [<duration>]
//   link-down   <t> <a> <b>
//   xfail       <t> <h2d|d2d|d2h|any> <src|-1> <dst|-1>
//   device-fail <t> <gpu>
//
// brownout scales link a<->b to <fraction> of nominal bandwidth at time
// <t>, healing after <duration> (omitted or 0 = permanent).  link-down
// demotes the route one step (2xNVLink -> 1xNVLink -> PCIe floor).  xfail
// aborts the first matching transfer issued at or after <t> (-1 endpoints
// are wildcards; d2h's dst is the host, use -1).  device-fail removes the
// GPU for good.
//
// Every device endpoint may be given either as an index or as the device's
// .tpo node name ("brownout 0.01 gpu0 gpu3 0.25"): a token starting with a
// letter is a name (tdl names never parse as integers), resolved against
// the armed machine's topology when the Injector arms the plan.  Named
// plans survive device renumbering across topology descriptions; unknown
// names fail arm() with the offending event.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace xkb::fault {

/// Base for every error the fault/recovery machinery can raise.  The bench
/// driver catches this (like OutOfDeviceMemory) and reports a failed-but-
/// diagnosed run rather than crashing the matrix.
class FaultError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A transfer kept failing past the retry policy's cap.
class TransferRetriesExhausted : public FaultError {
  using FaultError::FaultError;
};

/// Recovery could not preserve the last current copy of some tile: the
/// dirty replica died with no surviving copy and no replayable producer.
class UnrecoverableDataLoss : public FaultError {
  using FaultError::FaultError;
};

/// The watchdog saw outstanding work with no observable progress.
class StuckProgress : public FaultError {
  using FaultError::FaultError;
};

enum class FaultKind : std::uint8_t {
  kBrownout,      ///< link bandwidth drops to a fraction of nominal
  kLinkDown,      ///< route demoted one step (NV2 -> NV1 -> PCIe)
  kTransferFail,  ///< the next matching transfer aborts in flight
  kDeviceFail,    ///< whole-GPU loss
};

const char* to_string(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::kBrownout;
  sim::Time t = 0.0;
  int a = -1;              ///< link endpoint / failed device / xfail src (-1 any)
  int b = -1;              ///< link endpoint / xfail dst (-1 any)
  double fraction = 1.0;   ///< brownout: fraction of nominal bandwidth
  sim::Time duration = 0;  ///< brownout: heal after this long (0 = permanent)
  /// xfail: which transfer class.
  trace::TransferKind xfer = trace::TransferKind::kAny;
  /// Symbolic endpoints (.tpo device names).  Non-empty names override the
  /// index fields; the Injector resolves them against the topology at
  /// arm() time and writes the indices back into a/b.
  std::string a_name;
  std::string b_name;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  double fail_prob = 0.0;  ///< per-transfer abort probability (0 = off)
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty() && fail_prob <= 0.0; }

  /// Serialize back to the text format (round-trips through parse()).
  std::string to_text() const;

  /// Parse the text format; throws std::invalid_argument naming the
  /// offending line and directive on any malformed input.
  static FaultPlan parse(const std::string& text);
  static FaultPlan parse_file(const std::string& path);

  /// A reproducible plan for `--fault-seed`: a handful of brownouts, one
  /// route demotion and a low transfer-failure probability spread over
  /// [0, horizon) on an `num_gpus`-device machine, all drawn from `seed`.
  static FaultPlan random(std::uint64_t seed, int num_gpus, sim::Time horizon);
};

/// Capped exponential backoff for transient transfer failures, in virtual
/// time: attempt k (1-based) waits min(base * 2^(k-1), cap) before the
/// fetch is re-planned.  More than `max_transfer_retries` failed attempts
/// for the same reception raises TransferRetriesExhausted.
struct RetryPolicy {
  int max_transfer_retries = 6;
  double backoff_base = 25e-6;
  double backoff_cap = 2e-3;

  double backoff_for(int attempt) const {
    double d = backoff_base;
    for (int i = 1; i < attempt && d < backoff_cap; ++i) d *= 2.0;
    return d < backoff_cap ? d : backoff_cap;
  }
};

}  // namespace xkb::fault
