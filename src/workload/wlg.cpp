// The .wlg text DAG format: a canonical writer and a line-precise parser.
//
// Error contract (tested): every parse failure is one std::invalid_argument
// whose message is "<origin>:<line>: <directive>: field '<name>': <what>",
// so a malformed trace points at the exact line and field to fix -- the
// same style as fault::FaultPlan's plan-file errors.
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "workload/workload.hpp"

namespace xkb::wl {

namespace {

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Context for one line being parsed; all field errors funnel through fail().
struct LineCtx {
  const std::string& origin;
  std::size_t line = 0;
  std::string directive;

  [[noreturn]] void fail(const std::string& field,
                         const std::string& what) const {
    throw std::invalid_argument(origin + ":" + std::to_string(line) + ": " +
                                directive + ": field '" + field + "': " +
                                what);
  }

  std::string word(std::istringstream& in, const char* field) const {
    std::string w;
    if (!(in >> w)) fail(field, "missing value");
    return w;
  }

  std::size_t size_field(std::istringstream& in, const char* field) const {
    const std::string w = word(in, field);
    std::size_t pos = 0;
    unsigned long long x = 0;
    try {
      x = std::stoull(w, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (w[0] == '-' || pos != w.size())
      fail(field, "'" + w + "' is not a non-negative integer");
    return static_cast<std::size_t>(x);
  }

  double double_field(std::istringstream& in, const char* field) const {
    const std::string w = word(in, field);
    std::size_t pos = 0;
    double x = 0.0;
    try {
      x = std::stod(w, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != w.size()) fail(field, "'" + w + "' is not a number");
    // stod accepts "nan" and "inf", which defeat every downstream range
    // check (NaN comparisons are all false) and poison kernel-duration
    // arithmetic; a .wlg file never legitimately contains either.
    if (!std::isfinite(x)) fail(field, "'" + w + "' is not finite");
    return x;
  }
};

}  // namespace

std::string write_wlg(const WorkloadGraph& g) {
  std::ostringstream os;
  os << "# xkb workload graph\n";
  os << "workload " << (g.name.empty() ? std::string("unnamed") : g.name)
     << "\n";
  if (g.grid_placement) os << "grid-placement\n";
  for (std::size_t i = 0; i < g.tiles.size(); ++i)
    os << "tile " << i << " " << g.tiles[i].m << " " << g.tiles[i].n << " "
       << g.tiles[i].wordsize << "\n";
  for (const TaskSpec& t : g.tasks) {
    os << "task " << t.label << " " << fmt_double(t.flops) << " " << t.min_dim
       << " " << fmt_double(t.eff_factor) << " " << t.place_i << " "
       << t.place_j;
    for (const TaskAccessSpec& a : t.accesses)
      os << " " << to_string(a.mode) << ":" << a.tile;
    os << "\n";
  }
  if (!g.coherent.empty()) {
    os << "coherent";
    for (std::uint32_t c : g.coherent) os << " " << c;
    os << "\n";
  }
  return os.str();
}

WorkloadGraph parse_wlg(const std::string& text, const std::string& origin) {
  WorkloadGraph g;
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  bool saw_workload = false;

  while (std::getline(in, raw)) {
    ++lineno;
    const std::size_t hash = raw.find('#');
    std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // blank / comment-only line
    LineCtx ctx{origin, lineno, directive};

    if (directive == "workload") {
      g.name = ctx.word(ls, "name");
      saw_workload = true;
    } else if (directive == "grid-placement") {
      g.grid_placement = true;
    } else if (directive == "tile") {
      const std::size_t id = ctx.size_field(ls, "id");
      if (id != g.tiles.size())
        ctx.fail("id", "expected " + std::to_string(g.tiles.size()) +
                           " (tiles must be declared in id order), got " +
                           std::to_string(id));
      TileSpec t;
      t.m = ctx.size_field(ls, "m");
      t.n = ctx.size_field(ls, "n");
      t.wordsize = ctx.size_field(ls, "wordsize");
      if (t.m == 0 || t.n == 0 || t.wordsize == 0)
        ctx.fail("m/n/wordsize", "dimensions must be positive");
      g.tiles.push_back(t);
    } else if (directive == "task") {
      TaskSpec t;
      t.label = ctx.word(ls, "label");
      t.flops = ctx.double_field(ls, "flops");
      t.min_dim = ctx.size_field(ls, "min_dim");
      t.eff_factor = ctx.double_field(ls, "eff_factor");
      t.place_i = ctx.size_field(ls, "place_i");
      t.place_j = ctx.size_field(ls, "place_j");
      std::string acc;
      while (ls >> acc) {
        const std::size_t colon = acc.find(':');
        if (colon == std::string::npos)
          ctx.fail("access", "'" + acc + "' is not <mode>:<tile>");
        const std::string mode = acc.substr(0, colon);
        const std::string tile = acc.substr(colon + 1);
        TaskAccessSpec a;
        if (!trace::parse(mode, a.mode))
          ctx.fail("access", "mode '" + mode + "' is not one of r, w, rw");
        std::size_t pos = 0;
        unsigned long long id = 0;
        try {
          id = std::stoull(tile, &pos);
        } catch (const std::exception&) {
          pos = 0;
        }
        if (tile.empty() || pos != tile.size())
          ctx.fail("access", "tile id '" + tile + "' is not an integer");
        if (id >= g.tiles.size())
          ctx.fail("access", "tile " + tile + " not declared (have " +
                                 std::to_string(g.tiles.size()) + " tiles)");
        a.tile = static_cast<std::uint32_t>(id);
        t.accesses.push_back(a);
      }
      if (t.accesses.empty()) ctx.fail("access", "task accesses no tiles");
      g.tasks.push_back(std::move(t));
    } else if (directive == "coherent") {
      std::string w;
      bool any = false;
      while (ls >> w) {
        any = true;
        std::size_t pos = 0;
        unsigned long long id = 0;
        try {
          id = std::stoull(w, &pos);
        } catch (const std::exception&) {
          pos = 0;
        }
        if (pos != w.size())
          ctx.fail("tile", "'" + w + "' is not an integer");
        if (id >= g.tiles.size())
          ctx.fail("tile", "tile " + w + " not declared (have " +
                               std::to_string(g.tiles.size()) + " tiles)");
        g.coherent.push_back(static_cast<std::uint32_t>(id));
      }
      if (!any) ctx.fail("tile", "missing value");
    } else {
      ctx.fail("directive",
               "unknown directive (accepted: workload, grid-placement, "
               "tile, task, coherent)");
    }
  }
  if (!saw_workload)
    throw std::invalid_argument(origin +
                                ":1: workload: field 'name': missing "
                                "'workload <name>' header");
  g.validate();
  return g;
}

WorkloadGraph parse_wlg_file(const std::string& path) {
  std::ifstream f(path);
  if (!f)
    throw std::invalid_argument("workload file '" + path +
                                "': cannot open for reading");
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_wlg(buf.str(), path);
}

}  // namespace xkb::wl
