// Sparse vector clocks for the happens-before race detector.
//
// Components ("lanes") are the serial execution contexts of the simulated
// platform: one per device kernel stream plus one for the host worker.  A
// clock V happens-before W iff V <= W componentwise and V != W; two clocks
// with neither ordering are concurrent, which for two conflicting tile
// accesses means a race.  Missing components read 0, so the checker does
// not need the lane count up front.
//
// A clock stores only its nonzero components, as (lane, value) pairs sorted
// by lane.  On a 1024-device machine a task's clock spans over a thousand
// lanes but holds about a hundred nonzero entries, and the clocks carried
// by replica receptions hold about a dozen: storage and join/leq cost
// follow the entries, not the lane count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xkb::check {

class VectorClock {
 public:
  VectorClock() = default;

  std::uint64_t at(std::size_t lane) const {
    const auto it = std::lower_bound(e_.begin(), e_.end(), lane, below);
    return it != e_.end() && it->lane == lane ? it->value : 0;
  }

  /// Advance this clock's own component (a new event on `lane`).
  void tick(std::size_t lane) {
    auto it = std::lower_bound(e_.begin(), e_.end(), lane, below);
    if (it == e_.end() || it->lane != lane)
      it = e_.insert(it, {static_cast<std::uint32_t>(lane), 0});
    ++it->value;
  }

  /// Componentwise maximum (import every happens-before edge of `o`).
  void join(const VectorClock& o) {
    // Max the shared lanes in place and count the lanes only `o` has ...
    std::size_t i = 0, fresh = 0;
    for (const Entry& x : o.e_) {
      while (i < e_.size() && e_[i].lane < x.lane) ++i;
      if (i < e_.size() && e_[i].lane == x.lane)
        e_[i].value = std::max(e_[i].value, x.value);
      else
        ++fresh;
    }
    if (fresh == 0) return;
    // ... then merge those in from the back, so nothing moves twice.
    std::size_t a = e_.size(), b = o.e_.size(), w = a + fresh;
    e_.resize(w);
    while (b > 0) {
      const Entry& x = o.e_[b - 1];
      if (a > 0 && e_[a - 1].lane >= x.lane) {
        if (e_[a - 1].lane == x.lane) --b;  // already maxed above
        e_[--w] = e_[--a];
      } else {
        e_[--w] = x;
        --b;
      }
    }
  }

  /// true iff this clock happens-before-or-equals `o` (componentwise <=).
  bool leq(const VectorClock& o) const {
    std::size_t j = 0;
    for (const Entry& x : e_) {
      while (j < o.e_.size() && o.e_[j].lane < x.lane) ++j;
      if (j == o.e_.size() || o.e_[j].lane != x.lane || x.value > o.e_[j].value)
        return false;
    }
    return true;
  }

  bool empty() const { return e_.empty(); }

  /// Dense form: every lane up to the highest nonzero one, zeros included.
  std::string to_string() const {
    std::string s = "[";
    std::size_t lane = 0;
    for (const Entry& x : e_)
      for (; lane <= x.lane; ++lane) {
        if (lane != 0) s += ',';
        s += std::to_string(lane == x.lane ? x.value : 0);
      }
    return s += ']';
  }

 private:
  struct Entry {
    std::uint32_t lane;
    std::uint64_t value;  ///< always nonzero
  };

  static bool below(const Entry& x, std::size_t lane) { return x.lane < lane; }

  std::vector<Entry> e_;
};

}  // namespace xkb::check
