// Execution tracing, the simulator's equivalent of the paper's nvprof
// methodology (Section IV-E): every GPU operation -- memcpy HtoD / DtoH /
// PtoP and kernel execution -- is recorded with its device, virtual-time
// interval and payload, then aggregated into the cumulative and normalized
// breakdowns of Figs. 6-7 and the Gantt charts of Fig. 9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace xkb::trace {

enum class OpKind : std::uint8_t { kHtoD, kDtoH, kPtoP, kKernel };

const char* to_string(OpKind k);
/// Inverse of to_string; returns false when `s` names no OpKind.
bool parse_kind(const std::string& s, OpKind& out);

/// Why a peer copy was issued: directly, or as the forwarding leg of a
/// wait on an ongoing reception at the source (Section III-C) -- chosen by
/// the optimistic heuristic or forced because that reception held the only
/// copy.  A host wait (the tile is in flight to the host) counts as forced.
enum class Chain : std::uint8_t { kNone, kOptimistic, kForced };

// The data-path vocabulary: the one definition of each value the runtime,
// xkb::check, xkb::obs, xkb::fault and xkb::wl exchange.  It lives here
// because every one of those layers already links the trace.  The checker
// folds Access, Pick and TransferKind into its event hash by value, so the
// numbering is part of every pinned hash (tests/golden/event_hashes.txt).

/// Access mode of a task operand.
enum class Access : std::uint8_t { kR, kW, kRW };

/// Where choose_source may take a replica from (Section III-B and the
/// policies of the libraries the paper compares against).  Left int-sized:
/// gtest names value-parameterized tests by the bytes of their parameters,
/// several of which hold a HeuristicConfig.
enum class SourcePolicy {
  kTopologyAware,  ///< best P2P performance rank (the paper's heuristic)
  kFirstValid,     ///< first valid device in index order ("no topo")
  kSwitchPeer,     ///< a device behind the destination's PCIe switch
  kHostOnly,       ///< never a peer device
};

/// What choose_source picked: the host copy, a device copy, or a wait on a
/// reception in flight to a device (Section III-C) or to the host.
enum class Pick : std::uint8_t { kHost, kDevice, kWaitDevice, kWaitHost };

/// A DataManager transfer class; kAny, last, only matches in fault plans.
enum class TransferKind : std::uint8_t { kH2D, kD2D, kD2H, kAny };

const char* to_string(Access a);        ///< "r", "w", "rw"
const char* to_string(Pick p);          ///< "host", "wait-device", ...
const char* to_string(TransferKind k);  ///< "h2d", "d2d", "d2h", "any"
/// Inverses of to_string; false when `s` names no value.
bool parse(const std::string& s, Access& out);
bool parse(const std::string& s, Pick& out);
bool parse(const std::string& s, TransferKind& out);

/// Record::tile of an operation that moves no DataManager tile (kernels,
/// raw platform copies).
inline constexpr std::uint64_t kNoTile = ~std::uint64_t{0};

/// One GPU operation.  Fields are ordered widest first so the record stays
/// at 96 bytes (tests/test_trace.cpp pins it); the CSV round-trip carries
/// every field except `tile` and `chain`.
struct Record {
  sim::Time start = 0.0;
  sim::Time end = 0.0;
  /// Queueing delay: seconds the op waited behind earlier work on its
  /// resource (interval start - submission time).  Feeds the per-link
  /// contention statistics of xkb::obs and tools/trace_report.
  sim::Time queued = 0.0;
  double flops = 0.0;     ///< kernels only
  std::size_t bytes = 0;  ///< transfers only
  std::uint64_t tile = kNoTile;  ///< DataHandle id a transfer moves
  std::string label;      ///< kernel name / transfer peer
  int device = 0;  ///< device executing/receiving the operation
  int lane = 0;    ///< stream index within the device
  int peer = -1;   ///< PtoP only: source device (link identity)
  OpKind kind = OpKind::kKernel;
  Chain chain = Chain::kNone;  ///< PtoP only
};

/// Per-class time totals ("cumulative execution time" of Fig. 6).
struct Breakdown {
  double htod = 0.0, dtoh = 0.0, ptop = 0.0, kernel = 0.0;
  /// Charge `seconds` to the class of `k`.
  void add(OpKind k, double seconds);
  double total() const { return htod + dtoh + ptop + kernel; }
  double transfers() const { return htod + dtoh + ptop; }
};

class Trace {
 public:
  void add(Record r);
  void clear();

  const std::vector<Record>& records() const { return records_; }

  /// Sum of operation durations by class; device == -1 sums over all GPUs.
  Breakdown breakdown(int device = -1) const;

  /// breakdown(g) for every g in [0, devices), in one pass.
  std::vector<Breakdown> breakdowns(int devices) const;

  /// Latest end time over all records (the makespan of the traced region).
  sim::Time span() const;

  /// Earliest start time over all records.  Non-zero when the trace was
  /// cleared mid-run (e.g. after a data-on-device distribution phase) --
  /// the traced window is [t0(), span()].
  sim::Time t0() const;

  /// Bytes moved per transfer class.
  std::size_t bytes(OpKind kind) const;

  int max_device() const { return max_device_; }

 private:
  std::vector<Record> records_;
  int max_device_ = -1;
};

}  // namespace xkb::trace
