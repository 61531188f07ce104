#include "obs/obs.hpp"

#include <algorithm>
#include <map>

namespace xkb::obs {

Observability::Observability(int num_gpus)
    : gpus_(num_gpus),
      ready_(static_cast<std::size_t>(num_gpus), nullptr),
      hits_(static_cast<std::size_t>(num_gpus), 0),
      misses_(static_cast<std::size_t>(num_gpus), 0),
      inflight_hits_(static_cast<std::size_t>(num_gpus), 0),
      evict_clean_(static_cast<std::size_t>(num_gpus), 0),
      evict_dirty_(static_cast<std::size_t>(num_gpus), 0) {}

sim::UsageProbe* Observability::make_link_probe(std::string name,
                                                std::string cls, LinkDir dir,
                                                int src, int dst) {
  links_.push_back(std::make_unique<LinkProbe>(std::move(name),
                                               std::move(cls), dir, src, dst));
  return links_.back().get();
}

void Observability::on_cache_ref(int dev, CacheRef ref) {
  auto d = static_cast<std::size_t>(dev);
  switch (ref) {
    case CacheRef::kHit: ++hits_[d]; break;
    case CacheRef::kMiss: ++misses_[d]; break;
    case CacheRef::kInFlightHit: ++inflight_hits_[d]; break;
  }
}

void Observability::on_evict(int dev, bool dirty) {
  auto d = static_cast<std::size_t>(dev);
  if (dirty)
    ++evict_dirty_[d];
  else
    ++evict_clean_[d];
}

void Observability::on_fault_mark(sim::Time t, std::string what,
                                  std::string detail) {
  count_fault(what);
  fault_marks_.push_back(FaultMark{t, std::move(what), std::move(detail)});
}

void Observability::count_fault(const std::string& what, double n) {
  for (auto& kv : fault_counts_)
    if (kv.first == what) {
      kv.second += n;
      return;
    }
  fault_counts_.emplace_back(what, n);
}

std::vector<Flow> derive_flows(const trace::Trace& tr) {
  // The last reception (HtoD or PtoP record) into each (tile, device).
  std::map<std::pair<std::uint64_t, int>, const trace::Record*> last_rx;
  std::vector<Flow> flows;
  for (const trace::Record& r : tr.records()) {
    if (r.tile == trace::kNoTile || (r.kind != trace::OpKind::kHtoD &&
                                     r.kind != trace::OpKind::kPtoP))
      continue;
    if (r.chain != trace::Chain::kNone)
      if (auto rx = last_rx.find({r.tile, r.peer}); rx != last_rx.end())
        flows.push_back({rx->second, &r});
    last_rx[{r.tile, r.device}] = &r;
  }
  return flows;
}

Series* Observability::ready_series(int dev) {
  auto d = static_cast<std::size_t>(dev);
  if (!ready_[d])
    ready_[d] = &reg_.series("ready.gpu" + std::to_string(dev));
  return ready_[d];
}

sim::Time Observability::span() const {
  sim::Time s = trace_ ? trace_->span() : 0.0;
  for (const Decision& d : decisions_) s = std::max(s, d.t);
  for (const FaultMark& f : fault_marks_) s = std::max(s, f.t);
  for (const auto& l : links_)
    if (l->last_end() > s) s = l->last_end();
  return s;
}

void Observability::clear() {
  for (auto& l : links_) l->reset();
  decisions_.clear();
  fault_marks_.clear();
  fault_counts_.clear();
  std::fill(hits_.begin(), hits_.end(), 0);
  std::fill(misses_.begin(), misses_.end(), 0);
  std::fill(inflight_hits_.begin(), inflight_hits_.end(), 0);
  std::fill(evict_clean_.begin(), evict_clean_.end(), 0);
  std::fill(evict_dirty_.begin(), evict_dirty_.end(), 0);
  flight_dump_.clear();
  reg_.reset_values();
}

void Observability::finalize_registry() {
  auto set = [this](const std::string& k, double v) { reg_.counter(k) = v; };
  if (trace_) {
    // One pass, summing in record order like trace::Trace::breakdown.
    trace::Breakdown all;
    std::vector<trace::Breakdown> per(static_cast<std::size_t>(gpus_));
    std::size_t count[4] = {}, bytes[4] = {};  // indexed by OpKind
    for (const trace::Record& r : trace_->records()) {
      const double d = r.end - r.start;
      all.add(r.kind, d);
      per[static_cast<std::size_t>(r.device)].add(r.kind, d);
      const auto k = static_cast<std::size_t>(r.kind);
      ++count[k];
      bytes[k] += r.bytes;
    }
    auto num = [](std::size_t v) { return static_cast<double>(v); };
    constexpr auto kH = static_cast<std::size_t>(trace::OpKind::kHtoD);
    constexpr auto kD = static_cast<std::size_t>(trace::OpKind::kDtoH);
    constexpr auto kP = static_cast<std::size_t>(trace::OpKind::kPtoP);
    set("transfers.h2d", num(count[kH]));
    set("transfers.d2d", num(count[kP]));
    set("transfers.d2h", num(count[kD]));
    set("time.kernel", all.kernel);
    set("time.htod", all.htod);
    set("time.dtoh", all.dtoh);
    set("time.ptop", all.ptop);
    set("bytes.htod", num(bytes[kH]));
    set("bytes.dtoh", num(bytes[kD]));
    set("bytes.ptop", num(bytes[kP]));
    for (int g = 0; g < gpus_; ++g) {
      const std::string p = "gpu" + std::to_string(g) + ".time.";
      const trace::Breakdown& t = per[static_cast<std::size_t>(g)];
      set(p + "kernel", t.kernel);
      set(p + "htod", t.htod);
      set(p + "dtoh", t.dtoh);
      set(p + "ptop", t.ptop);
    }
    set("flows", static_cast<double>(derive_flows(*trace_).size()));
    reg_.set_gauge("span", span());
  }
  // Every kWaitDevice decision is exactly one wait.
  std::uint64_t waits[2] = {};  // optimistic, forced
  for (const Decision& d : decisions_)
    if (d.pick == trace::Pick::kWaitDevice) ++waits[d.forced ? 1 : 0];
  set("waits.optimistic", static_cast<double>(waits[0]));
  set("waits.forced", static_cast<double>(waits[1]));
  set("decisions", static_cast<double>(decisions_.size()));
  for (const auto& kv : fault_counts_) set("fault." + kv.first, kv.second);
  std::uint64_t hits = 0, misses = 0, inflight = 0, ec = 0, ed = 0;
  for (int g = 0; g < gpus_; ++g) {
    auto d = static_cast<std::size_t>(g);
    hits += hits_[d];
    misses += misses_[d];
    inflight += inflight_hits_[d];
    ec += evict_clean_[d];
    ed += evict_dirty_[d];
    const std::string p = "gpu" + std::to_string(g) + ".";
    set(p + "cache.hits", static_cast<double>(hits_[d]));
    set(p + "cache.misses", static_cast<double>(misses_[d]));
    set(p + "cache.inflight_hits", static_cast<double>(inflight_hits_[d]));
    set(p + "evict.clean", static_cast<double>(evict_clean_[d]));
    set(p + "evict.dirty", static_cast<double>(evict_dirty_[d]));
  }
  set("cache.hits", static_cast<double>(hits));
  set("cache.misses", static_cast<double>(misses));
  set("cache.inflight_hits", static_cast<double>(inflight));
  set("evict.clean", static_cast<double>(ec));
  set("evict.dirty", static_cast<double>(ed));
  for (const auto& l : links_) {
    set("link." + l->name() + ".bytes", static_cast<double>(l->bytes()));
    set("link." + l->name() + ".busy", l->busy());
    set("link." + l->name() + ".ops", static_cast<double>(l->ops()));
  }
}

}  // namespace xkb::obs
