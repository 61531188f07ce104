#include "obs/report.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "obs/provenance.hpp"
#include "trace/export.hpp"

namespace xkb::obs {

namespace {

using trace::OpKind;
using trace::Record;

/// Accumulator for link rows re-derived from trace records (no live probes).
struct DerivedRow {
  std::string cls;
  double busy = 0.0;
  std::size_t bytes = 0;
  std::uint64_t ops = 0;
  DelayHistogram q;
};

LinkRow to_row(const std::string& name, const DerivedRow& d, double span) {
  LinkRow row;
  row.name = name;
  row.cls = d.cls;
  row.busy = d.busy;
  row.util = span > 0.0 ? d.busy / span : 0.0;
  row.bytes = d.bytes;
  row.ops = d.ops;
  row.q_mean = d.q.mean();
  row.q_p95 = d.q.quantile(0.95);
  row.q_max = d.q.max;
  return row;
}

}  // namespace

RunReport build_report(const trace::Trace& tr, const topo::Topology& topo,
                       const Observability* o) {
  RunReport r;
  r.breakdown = tr.breakdown();
  r.cp = critical_path(tr, topo);
  // The traced window is [t0, last end]: a data-on-device run clears the
  // trace after its distribution phase, so utilization denominators must
  // not include the un-traced prefix.
  const double t0 = tr.t0();
  r.span = tr.span();
  if (o && o->span() > r.span) r.span = o->span();
  r.span -= t0;

  if (o) {
    for (const auto& l : o->links()) {
      if (l->ops() == 0) continue;
      LinkRow row;
      row.name = l->name();
      row.cls = l->cls();
      row.busy = l->busy();
      row.util = l->utilization(r.span);
      row.bytes = l->bytes();
      row.ops = l->ops();
      row.q_mean = l->queue().mean();
      row.q_p95 = l->queue().quantile(0.95);
      row.q_max = l->queue().max;
      r.links.push_back(std::move(row));
    }
    r.flows = static_cast<std::size_t>(o->metrics().counter_value("flows"));
    r.decisions = o->decisions().size();
  } else {
    // No live probes: re-derive per-link occupancy from the records.  This
    // path misses the shadow host-link occupancy of cross-switch PCIe peer
    // copies (the probes see it, the op trace intentionally omits it).
    std::map<std::string, DerivedRow> rows;
    for (const Record& rec : tr.records()) {
      std::string name;
      std::string cls;
      switch (rec.kind) {
        case OpKind::kHtoD:
          name = "h2d" + std::to_string(topo.host_link_of(rec.device));
          cls = "host";
          break;
        case OpKind::kDtoH:
          name = "d2h" + std::to_string(topo.host_link_of(rec.device));
          cls = "host";
          break;
        case OpKind::kPtoP:
          name = "p2p" + std::to_string(rec.peer) + "-" +
                 std::to_string(rec.device);
          cls = link_class_label(topo.link_class(rec.peer, rec.device));
          break;
        case OpKind::kKernel:
          continue;  // kernel lanes are appended below for both paths
      }
      DerivedRow& d = rows[name];
      d.cls = cls;
      d.busy += rec.end - rec.start;
      d.bytes += rec.bytes;
      ++d.ops;
      d.q.add(rec.queued);
    }
    for (const auto& [name, d] : rows)
      r.links.push_back(to_row(name, d, r.span));
  }

  // GPU compute lanes, from the kernel records (both paths).
  std::map<int, DerivedRow> lanes;
  for (const Record& rec : tr.records()) {
    if (rec.kind != OpKind::kKernel) continue;
    DerivedRow& d = lanes[rec.device];
    d.cls = "kernel";
    d.busy += rec.end - rec.start;
    ++d.ops;
    d.q.add(rec.queued);
  }
  for (const auto& [dev, d] : lanes) {
    std::string name = "k";
    name += std::to_string(dev);
    r.links.push_back(to_row(name, d, r.span));
  }

  return r;
}

std::string report_text(const RunReport& r) {
  std::ostringstream out;
  out << "== run report ==\n";
  out << "span: " << std::fixed << std::setprecision(6) << r.span << " s\n";
  out << "breakdown (s): kernel " << r.breakdown.kernel << "  HtoD "
      << r.breakdown.htod << "  DtoH " << r.breakdown.dtoh << "  PtoP "
      << r.breakdown.ptop << "\n";
  if (r.decisions || r.flows)
    out << "decisions: " << r.decisions << "  forwarding chains: " << r.flows
        << "\n";

  out << "\nlink utilization:\n";
  out << "  " << std::left << std::setw(10) << "name" << std::setw(10)
      << "class" << std::right << std::setw(10) << "busy(s)" << std::setw(8)
      << "util%" << std::setw(14) << "bytes" << std::setw(8) << "ops"
      << std::setw(11) << "q.mean(s)" << std::setw(11) << "q.p95(s)"
      << std::setw(11) << "q.max(s)" << "\n";
  for (const LinkRow& l : r.links) {
    out << "  " << std::left << std::setw(10) << l.name << std::setw(10)
        << l.cls << std::right << std::fixed << std::setprecision(4)
        << std::setw(10) << l.busy << std::setprecision(1) << std::setw(7)
        << 100.0 * l.util << "%" << std::setw(14) << l.bytes << std::setw(8)
        << l.ops << std::scientific << std::setprecision(2) << std::setw(11)
        << l.q_mean << std::setw(11) << l.q_p95 << std::setw(11) << l.q_max
        << "\n";
    out << std::defaultfloat;
  }

  // Most contended links by total queueing delay (mean * ops).
  std::vector<const LinkRow*> byq;
  for (const LinkRow& l : r.links)
    if (l.q_mean > 0.0) byq.push_back(&l);
  std::sort(byq.begin(), byq.end(), [](const LinkRow* a, const LinkRow* b) {
    const double qa = a->q_mean * static_cast<double>(a->ops);
    const double qb = b->q_mean * static_cast<double>(b->ops);
    if (qa != qb) return qa > qb;
    return a->name < b->name;
  });
  if (!byq.empty()) {
    out << "\nmost contended (total queueing delay):\n";
    for (std::size_t i = 0; i < byq.size() && i < 3; ++i) {
      const LinkRow& l = *byq[i];
      out << "  " << (i + 1) << ". " << l.name << " (" << l.cls << "): "
          << std::fixed << std::setprecision(6)
          << l.q_mean * static_cast<double>(l.ops) << " s over " << l.ops
          << " ops\n";
    }
  }

  const CriticalPath& cp = r.cp;
  out << "\ncritical path (" << cp.ops.size() << " ops, span " << std::fixed
      << std::setprecision(6) << cp.span << " s):\n";
  out << "  kernel " << cp.kernel << "  2xNVLink " << cp.nvlink2
      << "  1xNVLink " << cp.nvlink1 << "  PCIe " << cp.pcie << "  host "
      << cp.host << "  idle " << cp.idle << "\n";
  out << "  NVLink share of critical-path transfer time: " << std::fixed
      << std::setprecision(1) << 100.0 * cp.nvlink_share() << "%\n";
  return out.str();
}

std::string report_json(const RunReport& r, const Observability* o) {
  std::ostringstream out;
  out.precision(15);
  out << "{\n";
  out << "  \"provenance\": "
      << Provenance::current("xkb.obs.metrics", 1).to_json() << ",\n";
  out << "  \"span\": " << r.span << ",\n";
  out << "  \"breakdown\": {\"kernel\": " << r.breakdown.kernel
      << ", \"htod\": " << r.breakdown.htod << ", \"dtoh\": "
      << r.breakdown.dtoh << ", \"ptop\": " << r.breakdown.ptop << "},\n";
  out << "  \"decisions\": " << r.decisions << ",\n";
  out << "  \"flows\": " << r.flows << ",\n";
  out << "  \"links\": [";
  bool first = true;
  for (const LinkRow& l : r.links) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << trace::json_escape(l.name)
        << "\", \"class\": \"" << l.cls << "\", \"busy\": " << l.busy
        << ", \"util\": " << l.util << ", \"bytes\": " << l.bytes
        << ", \"ops\": " << l.ops << ", \"queue\": {\"mean\": " << l.q_mean
        << ", \"p95\": " << l.q_p95 << ", \"max\": " << l.q_max << "}}";
  }
  out << (first ? "" : "\n  ") << "],\n";
  const CriticalPath& cp = r.cp;
  out << "  \"critical_path\": {\n";
  out << "    \"kernel\": " << cp.kernel << ",\n";
  out << "    \"nvlink2\": " << cp.nvlink2 << ",\n";
  out << "    \"nvlink1\": " << cp.nvlink1 << ",\n";
  out << "    \"pcie\": " << cp.pcie << ",\n";
  out << "    \"host\": " << cp.host << ",\n";
  out << "    \"idle\": " << cp.idle << ",\n";
  out << "    \"span\": " << cp.span << ",\n";
  out << "    \"transfer\": " << cp.transfers() << ",\n";
  out << "    \"nvlink_transfer_share\": " << cp.nvlink_share() << ",\n";
  out << "    \"ops\": " << cp.ops.size() << ",\n";
  out << "    \"kernels\": {";
  first = true;
  for (const auto& [label, t] : cp.kernel_by_label) {
    out << (first ? "" : ", ") << "\"" << trace::json_escape(label)
        << "\": " << t;
    first = false;
  }
  out << "}\n  }";
  if (o) out << ",\n  \"metrics\": " << o->metrics().to_json();
  out << "\n}\n";
  return out.str();
}

std::string to_chrome_json(const trace::Trace& tr, const Observability& o) {
  // Object form (Chrome/Perfetto accept both): lets the export carry the
  // same provenance stamp as every other emitted artifact.
  std::ostringstream out;
  out << "{\n\"provenance\": "
      << Provenance::current("xkb.obs.trace", 1).to_json()
      << ",\n\"traceEvents\": ";
  trace::ChromeEvents ev(out);
  trace::write_chrome_events(tr, ev);
  out.precision(15);

  // "decide" sub-track names for every device that recorded a decision.
  std::vector<bool> has_dec;
  for (const Decision& d : o.decisions()) {
    if (d.dst >= static_cast<int>(has_dec.size()))
      has_dec.resize(static_cast<std::size_t>(d.dst) + 1, false);
    if (d.dst >= 0) has_dec[static_cast<std::size_t>(d.dst)] = true;
  }
  for (std::size_t g = 0; g < has_dec.size(); ++g)
    if (has_dec[g])
      ev.next() << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << g
                << ", \"tid\": 4, \"args\": {\"name\": \"decide\"}}";

  // Source-selection decisions as instant events with the candidate set.
  for (const Decision& d : o.decisions()) {
    ev.next() << "{\"name\": \"pick:" << to_string(d.pick)
              << "\", \"cat\": \"decision\", \"ph\": \"i\", \"s\": \"t\", "
                 "\"pid\": "
              << d.dst << ", \"tid\": 4, \"ts\": " << d.t * 1e6
              << ", \"args\": {\"tile\": " << d.handle << ", \"picked_dev\": "
              << d.picked_dev << ", \"forced\": "
              << (d.forced ? "true" : "false") << ", \"candidates\": \"";
    bool cf = true;
    for (const Decision::Candidate& c : d.candidates) {
      out << (cf ? "" : "; ") << "gpu" << c.dev << " rank" << c.rank
          << (c.in_flight ? " in-flight" : "");
      cf = false;
    }
    out << "\"}}";
  }

  // Fault-plan applications and recovery milestones as global instants on
  // a dedicated "faults" track, so a brownout or device loss can be read
  // in context with the transfers it perturbed.
  if (!o.fault_marks().empty()) {
    ev.next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 990"
                 ", \"args\": {\"name\": \"faults\"}}";
    for (const FaultMark& f : o.fault_marks())
      ev.next() << "{\"name\": \"" << trace::json_escape(f.what)
                << "\", \"cat\": \"fault\", \"ph\": \"i\", \"s\": \"g\", "
                   "\"pid\": 990, \"tid\": 0, \"ts\": "
                << f.t * 1e6 << ", \"args\": {\"detail\": \""
                << trace::json_escape(f.detail) << "\"}}";
  }

  // Ready-queue depth as counter tracks (one per device).
  for (const auto& [name, s] : o.metrics().series_map()) {
    if (name.rfind("ready.gpu", 0) != 0 || s.empty()) continue;
    const int pid = std::stoi(name.substr(9));
    for (const SeriesPoint& p : s.points())
      ev.next() << "{\"name\": \"ready-queue\", \"ph\": \"C\", \"pid\": " << pid
                << ", \"ts\": " << p.t * 1e6 << ", \"args\": {\"depth\": " << p.v
                << "}}";
  }

  // Forwarding chains as flow arrows: reception -> chained D2D copy.  The
  // binding points sit mid-slice so the arrows attach to the right events.
  int id = 0;
  for (const Flow& f : derive_flows(tr)) {
    const char* name = f.fwd->chain == trace::Chain::kForced
                           ? "forced-chain"
                           : "optimistic-chain";
    ev.next() << "{\"name\": \"" << name
              << "\", \"cat\": \"chain\", \"ph\": \"s\", \"id\": " << id
              << ", \"pid\": " << f.fwd->peer
              << ", \"tid\": " << trace::chrome_tid(f.rx->kind)
              << ", \"ts\": " << (f.rx->start + f.rx->end) * 0.5e6 << "}";
    ev.next() << "{\"name\": \"" << name
              << "\", \"cat\": \"chain\", \"ph\": \"f\", \"bp\": \"e\", "
                 "\"id\": "
              << id << ", \"pid\": " << f.fwd->device
              << ", \"tid\": 3, \"ts\": "
              << (f.fwd->start + f.fwd->end) * 0.5e6 << "}";
    ++id;
  }
  ev.close();
  out << "}\n";
  return out.str();
}

}  // namespace xkb::obs
