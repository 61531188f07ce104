#include "bench_io.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "tdl/presets.hpp"
#include "util/selfprof.hpp"

namespace xkb::bench {

using baselines::BenchConfig;

std::size_t parse_size(const std::string& flag, const std::string& v,
                       std::size_t max) {
  std::size_t pos = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (v.empty() || v[0] == '-' || pos != v.size())
    throw std::invalid_argument(flag + ": '" + v +
                                "' is not a non-negative integer");
  if (x > max)
    throw std::invalid_argument(flag + ": '" + v + "' is above " +
                                std::to_string(max));
  return static_cast<std::size_t>(x);
}

int parse_int(const std::string& flag, const std::string& v) {
  return static_cast<int>(
      parse_size(flag, v, std::numeric_limits<int>::max()));
}

double parse_double(const std::string& flag, const std::string& v) {
  std::size_t pos = 0;
  double x = 0.0;
  try {
    x = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (v.empty() || pos != v.size())
    throw std::invalid_argument(flag + ": '" + v + "' is not a number");
  return x;
}

Blas3 parse_routine(const std::string& r) {
  if (r == "gemm") return Blas3::kGemm;
  if (r == "symm") return Blas3::kSymm;
  if (r == "syrk") return Blas3::kSyrk;
  if (r == "syr2k") return Blas3::kSyr2k;
  if (r == "trmm") return Blas3::kTrmm;
  if (r == "trsm") return Blas3::kTrsm;
  if (r == "hemm") return Blas3::kHemm;
  if (r == "herk") return Blas3::kHerk;
  if (r == "her2k") return Blas3::kHer2k;
  throw std::invalid_argument("unknown routine '" + r +
                              "' (accepted: " + kRoutineNames + ")");
}

topo::Topology parse_topo(const std::string& t) {
  if (t == "dgx1") return topo::Topology::dgx1();
  if (t == "pcie") return topo::Topology::pcie_only(8);
  if (t == "nvswitch") return topo::Topology::nvswitch(8);
  if (t == "summit") return topo::Topology::summit_like();
  // Anything ending in .tpo is a machine description file.
  if (t.size() > 4 && t.compare(t.size() - 4, 4, ".tpo") == 0)
    return topo::Topology::from_tpo_file(t);
  // Fall through to the tdl preset registry (fat_tree_2x8, pcie8, ...), so
  // every preset a .tpo file can be generated from is also runnable.
  try {
    return topo::Topology::from_machine(tdl::preset_machine(t));
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("unknown topology '" + t +
                                "' (accepted: " + kTopoNames +
                                "|<tdl preset>|<file.tpo>)");
  }
}

util::JsonValue object(
    std::initializer_list<std::pair<const char*, Json>> kv) {
  util::JsonObject o;
  o.reserve(kv.size());
  for (const auto& [k, v] : kv) o.emplace_back(k, v.value());
  return util::JsonValue(std::move(o));
}

util::JsonValue provenance(const obs::Provenance& prov) {
  return util::json_parse(prov.to_json());
}

util::JsonValue trajectory(
    const std::string& path, bool append, const obs::Provenance& prov,
    const char* mode,
    std::initializer_list<std::pair<const char*, Json>> metrics,
    const char* watched) {
  util::JsonArray points;
  double prev = -1.0;
  if (append) {
    try {
      const util::JsonValue doc = util::json_parse_file(path);
      if (const util::JsonValue* traj = doc.find("trajectory"))
        for (const util::JsonValue& p : traj->as_array()) {
          points.push_back(p);
          prev = p.number_or(watched, prev);
        }
    } catch (const std::exception&) {
      // Missing file or pre-trajectory schema: start a fresh trajectory.
    }
  }
  util::JsonObject point{{"git", util::JsonValue(prov.git)},
                         {"date", util::JsonValue(prov.date)},
                         {"mode", util::JsonValue(std::string(mode))}};
  for (const auto& [k, v] : metrics) point.emplace_back(k, v.value());
  points.emplace_back(std::move(point));
  const double cur = points.back().number_or(watched, -1.0);
  if (prev > 0.0 && cur < 0.85 * prev)
    std::fprintf(stderr,
                 "WARNING: %s: %s regressed %.1f%% vs the previous "
                 "trajectory point (%.0f -> %.0f)\n",
                 path.c_str(), watched, 100.0 * (1.0 - cur / prev), prev,
                 cur);
  return util::JsonValue(std::move(points));
}

bool write_artifact(const std::string& path, const util::JsonValue& doc) {
  std::ofstream out(path);
  const util::JsonObject& members = doc.as_object();
  out << "{\n";
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto& [key, v] = members[i];
    out << "  " << util::json_dump(util::JsonValue(key)) << ": ";
    if (v.is_array() && !v.as_array().empty()) {
      const util::JsonArray& a = v.as_array();
      out << "[\n";
      for (std::size_t j = 0; j < a.size(); ++j)
        out << "    " << util::json_dump(a[j])
            << (j + 1 < a.size() ? ",\n" : "\n");
      out << "  ]";
    } else {
      out << util::json_dump(v);
    }
    out << (i + 1 < members.size() ? ",\n" : "\n");
  }
  out << "}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

double wall_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

}  // namespace

Overhead probe_overhead(const BenchConfig& cfg, int reps,
                        const Layers& layers) {
  Overhead out;
  struct Side {
    BenchConfig cfg;
    prof::SelfProfiler* sp = nullptr;
    double* ratio = nullptr;  ///< nullptr for the detached side
    std::vector<double> seconds;
  };
  std::vector<Side> sides;
  const auto add = [&](bool check, bool obs, prof::SelfProfiler* sp,
                       double* ratio) {
    Side side;
    side.cfg = cfg;
    side.cfg.check.enabled = check;
    side.cfg.obs.enabled = obs;
    side.sp = sp;
    side.ratio = ratio;
    sides.push_back(std::move(side));
  };
  add(false, false, nullptr, nullptr);
  if (layers.check) add(true, false, nullptr, &out.check);
  if (layers.obs) add(false, true, nullptr, &out.obs);
  if (layers.selfprof) add(false, false, layers.selfprof, &out.selfprof);

  auto model = baselines::make_xkblas(rt::HeuristicConfig::xkblas());
  for (int rep = 0; rep < reps && out.ok; ++rep)
    for (Side& side : sides) {
      bool failed = false;
      prof::SelfProfiler::activate(side.sp);
      side.seconds.push_back(
          wall_of([&] { failed = model->run(side.cfg).failed; }));
      prof::SelfProfiler::activate(nullptr);
      if (failed) out.ok = false;
    }
  if (reps < 1) out.ok = false;
  if (!out.ok) return out;
  out.off_s = median(sides.front().seconds);
  for (const Side& side : sides)
    if (side.ratio) *side.ratio = median(side.seconds) / out.off_s;
  return out;
}

HashCheck selfprof_hash_check(const BenchConfig& cfg) {
  BenchConfig checked = cfg;
  checked.check.enabled = true;
  auto model = baselines::make_xkblas(rt::HeuristicConfig::xkblas());
  const baselines::BenchResult off = model->run(checked);
  prof::SelfProfiler sp;
  prof::SelfProfiler::activate(&sp);
  const baselines::BenchResult on = model->run(checked);
  prof::SelfProfiler::activate(nullptr);
  return {!off.failed && !on.failed && off.event_hash == on.event_hash,
          off.event_hash, on.event_hash};
}

}  // namespace xkb::bench
