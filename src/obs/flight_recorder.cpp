#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/provenance.hpp"
#include "trace/export.hpp"

namespace xkb::obs {

namespace {

FlightEntry from_record(const trace::Record& r) {
  using K = FlightEntry::Kind;
  const std::uint64_t tile = r.tile == trace::kNoTile ? 0 : r.tile;
  switch (r.kind) {
    case trace::OpKind::kHtoD:
      return {r.end, K::kTransfer, -1, r.device, tile, r.bytes, "h2d"};
    case trace::OpKind::kDtoH:
      return {r.end, K::kTransfer, r.device, -1, tile, r.bytes, "d2h"};
    case trace::OpKind::kPtoP:
      return {r.end, K::kTransfer, r.peer, r.device, tile, r.bytes,
              r.chain == trace::Chain::kNone ? "d2d" : "d2d-chained"};
    case trace::OpKind::kKernel: break;
  }
  return {r.end, K::kKernel, r.device, -1, 0, 0, r.label};
}

std::size_t entries_seen(const Observability& o) {
  return (o.trace() ? o.trace()->records().size() : 0) +
         o.decisions().size() + o.fault_marks().size();
}

}  // namespace

const char* to_string(FlightEntry::Kind k) {
  switch (k) {
    case FlightEntry::Kind::kKernel: return "kernel";
    case FlightEntry::Kind::kTransfer: return "transfer";
    case FlightEntry::Kind::kDecision: return "decision";
    case FlightEntry::Kind::kFault: return "fault";
  }
  return "?";
}

std::vector<FlightEntry> flight_timeline(const Observability& o) {
  std::vector<FlightEntry> all;
  all.reserve(entries_seen(o));
  if (o.trace())
    for (const trace::Record& r : o.trace()->records())
      all.push_back(from_record(r));
  for (const Decision& d : o.decisions())
    all.push_back({d.t, FlightEntry::Kind::kDecision, d.picked_dev, d.dst,
                   d.handle, 0, to_string(d.pick)});
  for (const FaultMark& f : o.fault_marks())
    all.push_back({f.t, FlightEntry::Kind::kFault, -1, -1, 0, 0, f.what});
  std::stable_sort(all.begin(), all.end(),
                   [](const FlightEntry& a, const FlightEntry& b) {
                     return a.t < b.t;
                   });
  if (all.size() > kFlightCapacity)
    all.erase(all.begin(),
              all.end() - static_cast<std::ptrdiff_t>(kFlightCapacity));
  return all;
}

std::string flight_dump_json(const Observability& o, const std::string& reason,
                             const std::string& ledger_snapshot_json) {
  const std::vector<FlightEntry> tl = flight_timeline(o);
  std::ostringstream out;
  const Provenance p = Provenance::current("xkb.obs.flight", 1);
  out << "{\n";
  out << "\"provenance\": " << p.to_json() << ",\n";
  out << "\"reason\": \"" << trace::json_escape(reason) << "\",\n";
  out << "\"events_seen\": " << entries_seen(o) << ",\n";
  out << "\"events_retained\": " << tl.size() << ",\n";
  out << "\"timeline\": [";
  char buf[256];
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const FlightEntry& e = tl[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"t\": %.17g, \"kind\": \"%s\", \"a\": %d, \"b\": %d, "
                  "\"handle\": %llu, \"bytes\": %zu, \"tag\": \"",
                  i ? ",\n " : "\n ", e.t, to_string(e.kind), e.a, e.b,
                  static_cast<unsigned long long>(e.handle), e.bytes);
    out << buf << trace::json_escape(e.tag) << "\"}";
  }
  out << (tl.empty() ? "" : "\n") << "],\n";
  out << "\"ledger\": "
      << (ledger_snapshot_json.empty() ? "null" : ledger_snapshot_json);
  out << "\n}\n";
  return out.str();
}

}  // namespace xkb::obs
