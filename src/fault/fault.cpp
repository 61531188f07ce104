#include "fault/fault.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "util/rng.hpp"

namespace xkb::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kBrownout: return "brownout";
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kTransferFail: return "xfail";
    case FaultKind::kDeviceFail: return "device-fail";
  }
  return "?";
}

namespace {

/// An endpoint renders as its symbolic name when one was given (so a parsed
/// plan round-trips through to_text unchanged), else as its index.
std::string ep(const std::string& name, int idx) {
  return name.empty() ? std::to_string(idx) : name;
}

}  // namespace

std::string FaultPlan::to_text() const {
  std::ostringstream os;
  os << "seed " << seed << "\n";
  if (fail_prob > 0.0) os << "fail-prob " << fail_prob << "\n";
  for (const FaultEvent& e : events) {
    switch (e.kind) {
      case FaultKind::kBrownout:
        os << "brownout " << e.t << " " << ep(e.a_name, e.a) << " "
           << ep(e.b_name, e.b) << " " << e.fraction;
        if (e.duration > 0) os << " " << e.duration;
        os << "\n";
        break;
      case FaultKind::kLinkDown:
        os << "link-down " << e.t << " " << ep(e.a_name, e.a) << " "
           << ep(e.b_name, e.b) << "\n";
        break;
      case FaultKind::kTransferFail:
        os << "xfail " << e.t << " " << to_string(e.xfer) << " "
           << ep(e.a_name, e.a) << " " << ep(e.b_name, e.b) << "\n";
        break;
      case FaultKind::kDeviceFail:
        os << "device-fail " << e.t << " " << ep(e.a_name, e.a) << "\n";
        break;
    }
  }
  return os.str();
}

namespace {

[[noreturn]] void bad_line(int lineno, const std::string& line,
                           const std::string& why) {
  throw std::invalid_argument("fault plan line " + std::to_string(lineno) +
                              ": " + why + " in '" + line + "'");
}

double want_num(std::istringstream& is, int lineno, const std::string& line,
                const char* what) {
  double v = 0.0;
  if (!(is >> v)) bad_line(lineno, line, std::string("missing/bad ") + what);
  // stream extraction happily parses "nan" and "inf"; both sail through
  // every range check below (NaN comparisons are all false) and then break
  // the engine's time arithmetic, so reject them at the source.
  if (!std::isfinite(v))
    bad_line(lineno, line, std::string(what) + " must be finite");
  return v;
}

int want_int(std::istringstream& is, int lineno, const std::string& line,
             const char* what) {
  double v = want_num(is, lineno, line, what);
  if (v != std::floor(v))
    bad_line(lineno, line, std::string(what) + " must be an integer");
  // A double outside int's range makes the cast undefined, not clamped.
  if (v < -2147483648.0 || v > 2147483647.0)
    bad_line(lineno, line, std::string(what) + " is out of range");
  return static_cast<int>(v);
}

std::uint64_t want_u64(std::istringstream& is, int lineno,
                       const std::string& line, const char* what) {
  // Parsed as a decimal token, not through double: a seed like
  // 18446744073709551615 is exact here but rounds (and the cast from
  // double would be undefined) via want_num.
  std::string w;
  if (!(is >> w)) bad_line(lineno, line, std::string("missing/bad ") + what);
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(w, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (w[0] == '-' || pos != w.size())
    bad_line(lineno, line,
             std::string(what) + " must be a non-negative integer");
  return v;
}

void want_done(std::istringstream& is, int lineno, const std::string& line) {
  std::string extra;
  if (is >> extra) bad_line(lineno, line, "trailing junk '" + extra + "'");
}

/// An endpoint token is either a device index or a .tpo node name.  tdl
/// names start with a letter, so the two token classes never overlap: a
/// leading letter or '_' means name, anything else must parse as an
/// integer under want_int's rules.  The parsed index (or -1 for a name,
/// resolved at arm time) goes to `idx`, the name (or empty) to `name`.
void want_endpoint(std::istringstream& is, int lineno, const std::string& line,
                   const char* what, int& idx, std::string& name) {
  std::string w;
  if (!(is >> w)) bad_line(lineno, line, std::string("missing/bad ") + what);
  if (std::isalpha(static_cast<unsigned char>(w[0])) || w[0] == '_') {
    name = w;
    idx = -1;
    return;
  }
  std::istringstream token(w);
  idx = want_int(token, lineno, line, what);
  want_done(token, lineno, line);
  name.clear();
}

/// True when both endpoints are statically known to be the same node.  A
/// mixed name/index pair can only be checked after the name resolves, so
/// that case defers to Injector::arm().
bool same_endpoint(const FaultEvent& e) {
  if (e.a_name.empty() && e.b_name.empty()) return e.a == e.b;
  if (!e.a_name.empty() && !e.b_name.empty()) return e.a_name == e.b_name;
  return false;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    std::istringstream is(hash == std::string::npos ? line
                                                    : line.substr(0, hash));
    std::string word;
    if (!(is >> word)) continue;  // blank / comment-only
    if (word == "seed") {
      plan.seed = want_u64(is, lineno, line, "seed");
      want_done(is, lineno, line);
    } else if (word == "fail-prob") {
      plan.fail_prob = want_num(is, lineno, line, "probability");
      if (plan.fail_prob < 0.0 || plan.fail_prob > 1.0)
        bad_line(lineno, line, "fail-prob must be in [0, 1]");
    } else if (word == "brownout") {
      FaultEvent e;
      e.kind = FaultKind::kBrownout;
      e.t = want_num(is, lineno, line, "time");
      want_endpoint(is, lineno, line, "endpoint a", e.a, e.a_name);
      want_endpoint(is, lineno, line, "endpoint b", e.b, e.b_name);
      e.fraction = want_num(is, lineno, line, "fraction");
      double dur = 0.0;
      if (is >> dur) {
        if (!std::isfinite(dur)) bad_line(lineno, line, "duration must be finite");
        e.duration = dur;
        want_done(is, lineno, line);
      } else {
        is.clear();
      }
      if (e.t < 0 || (e.a_name.empty() && e.a < 0) ||
          (e.b_name.empty() && e.b < 0) || same_endpoint(e))
        bad_line(lineno, line, "bad brownout endpoints/time");
      if (e.fraction <= 0.0 || e.fraction > 1.0)
        bad_line(lineno, line, "brownout fraction must be in (0, 1]");
      if (e.duration < 0) bad_line(lineno, line, "negative duration");
      plan.events.push_back(e);
    } else if (word == "link-down") {
      FaultEvent e;
      e.kind = FaultKind::kLinkDown;
      e.t = want_num(is, lineno, line, "time");
      want_endpoint(is, lineno, line, "endpoint a", e.a, e.a_name);
      want_endpoint(is, lineno, line, "endpoint b", e.b, e.b_name);
      want_done(is, lineno, line);
      if (e.t < 0 || (e.a_name.empty() && e.a < 0) ||
          (e.b_name.empty() && e.b < 0) || same_endpoint(e))
        bad_line(lineno, line, "bad link-down endpoints/time");
      plan.events.push_back(e);
    } else if (word == "xfail") {
      FaultEvent e;
      e.kind = FaultKind::kTransferFail;
      e.t = want_num(is, lineno, line, "time");
      std::string kind;
      if (!(is >> kind)) bad_line(lineno, line, "missing transfer kind");
      if (!trace::parse(kind, e.xfer))
        bad_line(lineno, line, "unknown transfer kind '" + kind + "'");
      want_endpoint(is, lineno, line, "src", e.a, e.a_name);
      want_endpoint(is, lineno, line, "dst", e.b, e.b_name);
      want_done(is, lineno, line);
      // -1 stays the wildcard for index endpoints; a named endpoint is
      // never a wildcard (it resolves to a concrete device at arm time).
      if (e.t < 0 || (e.a_name.empty() && e.a < -1) ||
          (e.b_name.empty() && e.b < -1))
        bad_line(lineno, line, "bad xfail spec");
      plan.events.push_back(e);
    } else if (word == "device-fail") {
      FaultEvent e;
      e.kind = FaultKind::kDeviceFail;
      e.t = want_num(is, lineno, line, "time");
      want_endpoint(is, lineno, line, "device", e.a, e.a_name);
      want_done(is, lineno, line);
      if (e.t < 0 || (e.a_name.empty() && e.a < 0))
        bad_line(lineno, line, "bad device-fail spec");
      plan.events.push_back(e);
    } else {
      bad_line(lineno, line, "unknown directive '" + word + "'");
    }
  }
  return plan;
}

FaultPlan FaultPlan::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::invalid_argument("cannot open fault plan file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

FaultPlan FaultPlan::random(std::uint64_t seed, int num_gpus,
                            sim::Time horizon) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  if (num_gpus < 2 || horizon <= 0) return plan;
  const auto pair = [&] {
    const int a = static_cast<int>(rng.next_below(num_gpus));
    int b = static_cast<int>(rng.next_below(num_gpus - 1));
    if (b >= a) ++b;
    return std::pair<int, int>(a, b);
  };
  // Two brownouts: one transient, one lasting to the end of the run.
  for (int i = 0; i < 2; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kBrownout;
    e.t = rng.uniform(0.0, horizon * 0.5);
    std::tie(e.a, e.b) = pair();
    e.fraction = rng.uniform(0.1, 0.6);
    e.duration = (i == 0) ? rng.uniform(horizon * 0.1, horizon * 0.4) : 0.0;
    plan.events.push_back(e);
  }
  // One route demotion.
  {
    FaultEvent e;
    e.kind = FaultKind::kLinkDown;
    e.t = rng.uniform(0.0, horizon * 0.5);
    std::tie(e.a, e.b) = pair();
    plan.events.push_back(e);
  }
  // A sprinkle of transfer failures.
  plan.fail_prob = 0.01;
  return plan;
}

}  // namespace xkb::fault
