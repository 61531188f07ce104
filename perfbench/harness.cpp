#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

namespace {

// The benchmark is single-threaded (the simulator starts no threads), so the
// allocation counters are plain integers.
std::uint64_t g_allocs = 0;
std::uint64_t g_live = 0;
std::uint64_t g_peak = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (!p) throw std::bad_alloc();
  ++g_allocs;
  g_live += malloc_usable_size(p);
  if (g_live > g_peak) g_peak = g_live;
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_live -= malloc_usable_size(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}


double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = kFnvBasis;
  for (unsigned char c : s) h = fnv_fold(h, c);
  return h;
}

void hash_events(xkb::sim::Engine& e, std::uint64_t& hash) {
  e.set_observer([&hash](xkb::sim::Time t, std::uint64_t ordinal) {
    hash = fnv_fold(fnv_fold(hash, std::bit_cast<std::uint64_t>(t)), ordinal);
  });
}

std::string run_digest(std::uint64_t hash, double makespan) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx %.17g",
                static_cast<unsigned long long>(hash), makespan);
  return buf;
}

void RunCounts::add(xkb::rt::Platform& plat, xkb::rt::Runtime& runtime) {
  const xkb::sim::Engine& e = plat.engine();
  events += e.events_processed();
  observable += e.observable_processed();
  peak_pending = std::max<std::uint64_t>(peak_pending, e.peak_pending());
  tasks += runtime.tasks_completed();
  steals += runtime.steals();
  const xkb::rt::TransferStats& s = runtime.data_manager().stats();
  transfers.h2d += s.h2d;
  transfers.d2d += s.d2d;
  transfers.d2h += s.d2h;
  transfers.optimistic_waits += s.optimistic_waits;
  transfers.forced_waits += s.forced_waits;
  transfers.evict_flushes += s.evict_flushes;
  transfers.oom_deferrals += s.oom_deferrals;
  for (int g = 0; g < plat.num_gpus(); ++g) {
    evictions += plat.cache(g).evictions();
    resident_max = std::max<std::uint64_t>(resident_max,
                                           plat.cache(g).resident_count());
  }
}

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(&t) {
  if (!t.on_) return;
  idx_ = static_cast<int>(t.spans_.size());
  t.spans_.emplace_back();
  // Read the counters after the span's own bookkeeping allocated.
  Span& s = t.spans_.back();
  s.name = name;
  s.parent = t.open_;
  s.allocs = g_allocs;
  s.heap_at_entry = g_live;
  s.outer_peak = g_peak;
  g_peak = g_live;  // this span's high-water starts at its entry level
  s.start = now_s();
  t.open_ = idx_;
}

Tracer::Scope::~Scope() {
  if (idx_ < 0) return;
  Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
  s.end = now_s();
  s.allocs = g_allocs - s.allocs;
  s.heap_peak = g_peak - s.heap_at_entry;
  g_peak = std::max(g_peak, s.outer_peak);
  t_->open_ = s.parent;
}

double Tracer::seconds(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.end - s.start;
  return t;
}

std::uint64_t Tracer::allocs(const std::string& name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_)
    if (s.name == name) n += s.allocs;
  return n;
}

std::uint64_t Tracer::heap_peak(const std::string& name) const {
  std::uint64_t b = 0;
  for (const Span& s : spans_)
    if (s.name == name) b = std::max(b, s.heap_peak);
  return b;
}

double Tracer::self_time_s() const {
  // Children are subtracted from their parent and counted themselves, so
  // the sum of self times is the time covered by the outermost spans.
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.parent < 0) t += s.end - s.start;
  return t;
}

}  // namespace perfbench
