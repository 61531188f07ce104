// Human- and machine-readable run reports: per-link utilization and
// queueing-delay tables, the trace breakdown, and the critical-path
// attribution -- the output of `tools/trace_report` and of
// `xkbsim_cli --metrics-out`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/obs.hpp"
#include "topo/topology.hpp"
#include "trace/trace.hpp"

namespace xkb::obs {

/// One row of the utilization table: a directed link or a GPU compute lane.
struct LinkRow {
  std::string name;  ///< "h2d0", "p2p3-1", "k5", ...
  std::string cls;   ///< "2xNVLink" | "1xNVLink" | "PCIe" | "host" | "kernel"
  double busy = 0.0;
  double util = 0.0;  ///< busy / span
  std::size_t bytes = 0;
  std::uint64_t ops = 0;
  double q_mean = 0.0, q_p95 = 0.0, q_max = 0.0;  ///< queueing delay (s)
};

struct RunReport {
  double span = 0.0;
  trace::Breakdown breakdown;
  std::vector<LinkRow> links;
  CriticalPath cp;
  std::size_t flows = 0;      ///< reconstructed forwarding chains (obs only)
  std::size_t decisions = 0;  ///< recorded source decisions (obs only)
};

/// Build a report from a trace.  With `o`, link rows come from the live
/// probes (which also see the shadow host-link occupancy of cross-switch
/// PCIe peer copies) and the flow count from its registry, so
/// o->finalize_registry() must have run on `tr`; without, link rows are
/// re-derived from the records alone.
RunReport build_report(const trace::Trace& tr, const topo::Topology& topo,
                       const Observability* o = nullptr);

/// Fixed-width text rendering: utilization table, most-contended links,
/// critical-path breakdown with the NVLink transfer share.
std::string report_text(const RunReport& r);

/// JSON rendering; with `o`, the metrics registry is embedded under
/// "metrics" (o->finalize_registry() must have run).
std::string report_json(const RunReport& r, const Observability* o = nullptr);

/// Chrome trace-event JSON enriched with the observability record: ready-
/// queue counter tracks, source-decision instant events on a "decide"
/// sub-track, and flow arrows connecting each optimistic/forced forwarding
/// chain's reception to its D2D copy.
std::string to_chrome_json(const trace::Trace& tr, const Observability& o);

}  // namespace xkb::obs
