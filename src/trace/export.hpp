// Trace export: CSV (one row per GPU operation) and Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto), so simulated executions can be
// inspected with the same tooling one would point at real nvprof output.
#pragma once

#include <ostream>
#include <string>

#include "trace/trace.hpp"

namespace xkb::trace {

/// CSV with header: device,kind,start,end,bytes,flops,lane,peer,queued,label.
/// Labels containing commas, quotes or newlines are RFC-4180 quoted.
std::string to_csv(const Trace& t);

/// Inverse of to_csv: parse a CSV dump back into a Trace (tools/trace_report
/// consumes saved traces).  Throws std::invalid_argument on malformed input.
Trace from_csv(const std::string& csv);

/// One JSON array of Chrome trace events written straight into a stream.
/// The plain export below and the enriched xkb::obs export both write
/// through it, so every event is formatted once, into one stream.
class ChromeEvents {
 public:
  explicit ChromeEvents(std::ostream& out) : out_(out) { out_ << '['; }
  /// Start the next array element; the caller streams the event object.
  std::ostream& next() {
    out_ << (first_ ? "\n  " : ",\n  ");
    first_ = false;
    return out_;
  }
  std::ostream& stream() { return out_; }
  void close() { out_ << "\n]\n"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

/// The per-GPU tracks of `t`: "M" metadata events naming each pid "GPU n"
/// and its tids kernel/HtoD/DtoH/PtoP, then one "X" complete event per
/// record.  Timestamps in microseconds of virtual time, 6 significant
/// digits.
void write_chrome_events(const Trace& t, ChromeEvents& ev);

/// Chrome trace-event JSON array of write_chrome_events (loadable in
/// chrome://tracing or Perfetto).
std::string to_chrome_json(const Trace& t);

/// JSON string escaping (quotes, backslashes and all control characters),
/// shared with the enriched xkb::obs exporter.
std::string json_escape(const std::string& s);

/// Chrome-trace tid for an op class (0 kernel, 1 HtoD, 2 DtoH, 3 PtoP):
/// the per-GPU sub-track layout both exporters agree on.
int chrome_tid(OpKind k);

}  // namespace xkb::trace
