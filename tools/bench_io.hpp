// bench_io: the measurement plumbing the tools share, written once.
//
//   * Command-line values: strict numeric parsing and the routine and
//     topology resolvers, so every tool accepts the same names and rejects
//     "12abc" the same way.
//   * Artifacts: the JSON body is built as a util::JsonValue (strings are
//     escaped by construction) and written one top-level member per line;
//     trajectory() carries an artifact's --append history forward.
//   * Overhead probe: the host-time cost of attaching xkb::check, xkb::obs
//     or the self-profiler to a run, and the profiler's hash-invariance
//     check.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>

#include "baselines/library_model.hpp"
#include "obs/provenance.hpp"
#include "util/json.hpp"

namespace xkb::prof {
class SelfProfiler;
}

namespace xkb::bench {

// ---- command-line values --------------------------------------------------

inline constexpr const char* kRoutineNames =
    "gemm|symm|syrk|syr2k|trmm|trsm|hemm|herk|her2k";
inline constexpr const char* kTopoNames = "dgx1|pcie|nvswitch|summit";

/// Strict full-string unsigned parse: "12abc", "-3", "" and values above
/// `max` all throw std::invalid_argument naming the flag (std::stoul would
/// accept the first silently and wrap the second).
std::size_t parse_size(const std::string& flag, const std::string& v,
                       std::size_t max = static_cast<std::size_t>(-1));
/// parse_size bounded to int, for counts held in an int.
int parse_int(const std::string& flag, const std::string& v);
/// Strict full-string floating-point parse.
double parse_double(const std::string& flag, const std::string& v);

/// Routine by lowercase name (kRoutineNames).
Blas3 parse_routine(const std::string& r);
/// Machine by name: a kTopoNames builder, any tdl preset (fat_tree_2x8,
/// pcie8, ...) or a .tpo machine description file.
topo::Topology parse_topo(const std::string& t);

// ---- artifacts ------------------------------------------------------------

/// A JSON value from a C++ number, bool, string or built value, so that an
/// artifact body reads as a {{"key", value}, ...} list.
class Json {
 public:
  Json(util::JsonValue v) : v_(std::move(v)) {}
  Json(util::JsonArray a) : v_(std::move(a)) {}
  Json(bool b) : v_(b) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  template <class T, std::enable_if_t<std::is_arithmetic_v<T> &&
                                          !std::is_same_v<T, bool>,
                                      int> = 0>
  Json(T x) : v_(static_cast<double>(x)) {}

  const util::JsonValue& value() const { return v_; }

 private:
  util::JsonValue v_;
};

/// An object with its keys in the order given.
util::JsonValue object(std::initializer_list<std::pair<const char*, Json>> kv);

/// The provenance stamp as a JSON value (embed under "provenance").
util::JsonValue provenance(const obs::Provenance& prov);

/// The artifact's "trajectory" array: with `append`, the points already in
/// the file at `path` (none when it is missing or unparseable), then this
/// run's point -- git, date and mode from `prov`/`mode`, then `metrics`.
/// Prints a warning when the `watched` metric falls >= 15% below the
/// newest prior point that carries it.
util::JsonValue trajectory(
    const std::string& path, bool append, const obs::Provenance& prov,
    const char* mode,
    std::initializer_list<std::pair<const char*, Json>> metrics,
    const char* watched);

/// Writes the object `doc` to `path`, one top-level member per line and
/// one element per line for top-level arrays.  Prints the error and
/// returns false when the file cannot be written.
bool write_artifact(const std::string& path, const util::JsonValue& doc);

// ---- timing ---------------------------------------------------------------

/// Host wall-clock seconds `fn` takes.
double wall_of(const std::function<void()>& fn);

/// Host-time ratios of attached over detached runs; 0 for a layer not
/// probed.
struct Overhead {
  bool ok = true;      ///< false when any probe run failed
  double off_s = 0.0;  ///< median wall seconds of one detached run
  double check = 0.0;
  double obs = 0.0;
  double selfprof = 0.0;
};

/// Which layers probe_overhead attaches.  `selfprof` is attached for its
/// side's runs and keeps the profile they accumulate.
struct Layers {
  bool check = false;
  bool obs = false;
  prof::SelfProfiler* selfprof = nullptr;
};

/// Runs `cfg` on the XKBlas model `reps` times detached and `reps` times
/// with each requested layer attached, interleaved rep by rep so that
/// machine noise lands on every side alike; each ratio compares per-side
/// medians.
Overhead probe_overhead(const baselines::BenchConfig& cfg, int reps,
                        const Layers& layers);

/// The self-profiler must be observably inert: one checked run of `cfg`
/// detached and one with a profiler attached.
struct HashCheck {
  bool ok = false;  ///< both runs completed with equal event hashes
  std::uint64_t off = 0;
  std::uint64_t on = 0;
};
HashCheck selfprof_hash_check(const baselines::BenchConfig& cfg);

}  // namespace xkb::bench
