#include "trace/export.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace xkb::trace {

namespace {

/// RFC-4180 field quoting: only labels with a comma, quote or newline need
/// it; embedded quotes are doubled.
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

/// Split one logical CSV line into fields, honouring quoted fields
/// (embedded commas and newlines survive; doubled quotes are decoded).
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"' && cur.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

int chrome_tid(OpKind k) {
  switch (k) {
    case OpKind::kKernel: return 0;
    case OpKind::kHtoD: return 1;
    case OpKind::kDtoH: return 2;
    case OpKind::kPtoP: return 3;
  }
  return 0;
}

std::string to_csv(const Trace& t) {
  std::ostringstream out;
  out.precision(17);  // round-trip doubles exactly (critical-path matching)
  out << "device,kind,start,end,bytes,flops,lane,peer,queued,label\n";
  for (const Record& r : t.records()) {
    out << r.device << ',' << to_string(r.kind) << ',' << r.start << ','
        << r.end << ',' << r.bytes << ',' << r.flops << ',' << r.lane << ','
        << r.peer << ',' << r.queued << ',' << csv_escape(r.label) << '\n';
  }
  return out.str();
}

Trace from_csv(const std::string& csv) {
  Trace t;
  std::istringstream in(csv);
  std::string line, part;
  bool header = true;
  while (std::getline(in, line)) {
    // A quoted label may contain newlines: keep appending physical lines
    // while the quote count is odd (an RFC-4180 record spans them).
    while (std::count(line.begin(), line.end(), '"') % 2 != 0 &&
           std::getline(in, part))
      line += '\n' + part;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (header) {
      header = false;
      if (line.rfind("device,", 0) != 0)
        throw std::invalid_argument("trace CSV: missing header row");
      continue;
    }
    const std::vector<std::string> f = split_csv_line(line);
    if (f.size() != 10)
      throw std::invalid_argument("trace CSV: expected 10 fields, got " +
                                  std::to_string(f.size()));
    Record r;
    r.device = std::stoi(f[0]);
    if (!parse_kind(f[1], r.kind))
      throw std::invalid_argument("trace CSV: unknown op kind '" + f[1] + "'");
    r.start = std::stod(f[2]);
    r.end = std::stod(f[3]);
    r.bytes = std::stoul(f[4]);
    r.flops = std::stod(f[5]);
    r.lane = std::stoi(f[6]);
    r.peer = std::stoi(f[7]);
    r.queued = std::stod(f[8]);
    r.label = f[9];
    t.add(std::move(r));
  }
  return t;
}

void write_chrome_events(const Trace& t, ChromeEvents& ev) {
  std::ostream& out = ev.stream();
  const std::streamsize prec = out.precision(6);

  // Metadata events: name the processes ("GPU n") and the per-class
  // sub-tracks so Perfetto shows labelled rows instead of bare ids.
  std::set<int> pids;
  for (const Record& r : t.records()) pids.insert(r.device);
  static const char* kTidNames[] = {"kernel", "HtoD", "DtoH", "PtoP"};
  for (int pid : pids) {
    ev.next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
              << ", \"args\": {\"name\": \"GPU " << pid << "\"}}";
    for (int tid = 0; tid < 4; ++tid)
      ev.next() << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
                << pid << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
                << kTidNames[tid] << "\"}}";
  }

  for (const Record& r : t.records())
    ev.next() << "{\"name\": \"" << json_escape(r.label) << "\", \"cat\": \""
              << to_string(r.kind) << "\", \"ph\": \"X\", \"pid\": " << r.device
              << ", \"tid\": " << chrome_tid(r.kind)
              << ", \"ts\": " << r.start * 1e6
              << ", \"dur\": " << (r.end - r.start) * 1e6 << "}";
  out.precision(prec);
}

std::string to_chrome_json(const Trace& t) {
  std::ostringstream out;
  ChromeEvents ev(out);
  write_chrome_events(t, ev);
  ev.close();
  return out.str();
}

}  // namespace xkb::trace
