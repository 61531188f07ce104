#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <sstream>

#include "obs/provenance.hpp"
#include "trace/export.hpp"

namespace xkb::obs {

const char* to_string(FlightEntry::Kind k) {
  switch (k) {
    case FlightEntry::Kind::kKernel: return "kernel";
    case FlightEntry::Kind::kTransfer: return "transfer";
    case FlightEntry::Kind::kWait: return "wait";
    case FlightEntry::Kind::kDecision: return "decision";
    case FlightEntry::Kind::kFault: return "fault";
  }
  return "?";
}

std::vector<FlightEntry> FlightRecorder::timeline() const {
  std::vector<FlightEntry> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = total_ - n;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(ring_[static_cast<std::size_t>((first + i) % cap_)]);
  return out;
}

std::string FlightRecorder::dump_json(
    const std::string& reason, const std::string& ledger_snapshot_json) const {
  std::ostringstream out;
  const Provenance p = Provenance::current("xkb.obs.flight", 1);
  out << "{\n";
  out << "\"provenance\": " << p.to_json() << ",\n";
  out << "\"reason\": \"" << trace::json_escape(reason) << "\",\n";
  out << "\"events_seen\": " << total_ << ",\n";
  out << "\"events_retained\": " << size() << ",\n";
  out << "\"timeline\": [";
  const std::vector<FlightEntry> tl = timeline();
  char buf[256];
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const FlightEntry& e = tl[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"t\": %.17g, \"kind\": \"%s\", \"a\": %d, \"b\": %d, "
                  "\"handle\": %llu, \"bytes\": %zu, \"tag\": \"%s\"}",
                  i ? ",\n " : "\n ", e.t, to_string(e.kind), e.a, e.b,
                  static_cast<unsigned long long>(e.handle), e.bytes,
                  trace::json_escape(e.tag).c_str());
    out << buf;
  }
  out << (tl.empty() ? "" : "\n") << "],\n";
  out << "\"ledger\": "
      << (ledger_snapshot_json.empty() ? "null" : ledger_snapshot_json);
  out << "\n}\n";
  return out.str();
}

}  // namespace xkb::obs
