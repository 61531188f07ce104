// Measurement harness of the XKBlasSim benchmark (xkb_perfbench).
//
// The benchmark measures the simulator from outside: it times its own calls
// into each module's public functions, reads counts from public accessors,
// and counts heap allocations with a global operator new of its own.  Host
// time is the only noisy quantity; every virtual-time result and every
// count must repeat exactly from one repetition to the next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// Host wall clock, in seconds (steady, monotonic).
double now_s();

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
/// One FNV-1a 64 step over a 64-bit word.
inline std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}
/// FNV-1a 64 over bytes, for digests of emitted artifacts.
std::uint64_t fnv1a(const std::string& s);

/// Folds every observable event of `e` (time, ordinal) into `hash`, which
/// must outlive the engine's runs.  For runs no checker observes.
void hash_events(xkb::sim::Engine& e, std::uint64_t& hash);

/// "hash makespan": what one simulated run must repeat bit for bit.
std::string run_digest(std::uint64_t hash, double makespan);

/// Spans recorded around the benchmark's calls into each layer.  Off in the
/// end-to-end run: there a Scope reads no clock and records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  /// Total duration of the spans named `name`.
  double seconds(const std::string& name) const;
  /// Heap allocations (counted by the benchmark's operator new) made inside
  /// the spans named `name`.
  std::uint64_t allocs(const std::string& name) const;
  /// Peak heap bytes above the entry level inside the spans named `name`
  /// (usable sizes of operator new blocks).
  std::uint64_t heap_peak(const std::string& name) const;
  /// Sum of every span's self time (its duration minus its children's).
  double self_time_s() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0, end = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t heap_peak = 0;
    std::uint64_t heap_at_entry = 0;
    std::uint64_t outer_peak = 0;  ///< enclosing span's peak, restored on exit
  };
  bool on_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Times the enclosing block into `acc` (always) and records it as span
/// `name` (traced runs only).
class Timed {
 public:
  Timed(double& acc, Tracer& tr, const char* name)
      : acc_(&acc), scope_(tr, name), t0_(now_s()) {}
  ~Timed() { *acc_ += now_s() - t0_; }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  double* acc_;
  Tracer::Scope scope_;
  double t0_;
};

/// One benchmark operation of a repetition: a simulated run or a check.
/// `digest` holds everything that must repeat bit for bit (event hash,
/// virtual makespan, stats digest); a non-empty `error` is a failure.
struct Op {
  std::string name;
  std::string digest;
  std::string error;
};

/// Counters every simulated run has, summed over the runs of a repetition
/// (peak and resident: maximum).  Every workload adds each of its runs, so
/// these give the per-layer metrics all workloads report.
struct RunCounts {
  std::uint64_t events = 0;  ///< every dispatched event, silent ones too
  std::uint64_t observable = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t evictions = 0;
  std::uint64_t resident_max = 0;  ///< largest per-device resident count
  xkb::rt::TransferStats transfers;
  /// Adds one finished run: its engine, runtime and device caches.
  void add(xkb::rt::Platform& plat, xkb::rt::Runtime& runtime);
};

/// One repetition of a workload.
struct Rep {
  double setup_s = 0.0;  ///< host: set-up calls
  double wall_s = 0.0;   ///< host: timed phase, tear-down included
  RunCounts runs;
  std::vector<Op> ops;
  /// Virtual-time results (identical in every repetition).
  std::map<std::string, double> virt;
  /// Workload-specific per-layer metrics; filled only when the repetition
  /// was traced.
  std::map<std::string, double> layer;
};

/// A named workload: every call to rep() does the same work.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Rep rep(Tracer& tr) = 0;
  /// Untimed checks made once, after the warm-up repetition.
  virtual std::vector<Op> verify() { return {}; }
};

}  // namespace perfbench
