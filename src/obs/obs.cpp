#include "obs/obs.hpp"

#include <algorithm>

namespace xkb::obs {

const char* to_string(Pick p) {
  switch (p) {
    case Pick::kHost: return "host";
    case Pick::kDevice: return "device";
    case Pick::kWaitDevice: return "wait-device";
    case Pick::kWaitHost: return "wait-host";
  }
  return "?";
}

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

void Observability::on_kernel(int dev, const std::string& label,
                              sim::Interval iv) {
  if (iv.end > last_event_) last_event_ = iv.end;
  flight_.note(iv.end, FlightEntry::Kind::kKernel, dev, -1, 0, 0,
               label.c_str());
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

void Observability::on_wait(std::uint64_t handle, int src, int dst,
                            bool forced) {
  if (forced)
    ++forced_waits_;
  else
    ++opt_waits_;
  rx_[RxKey{handle, dst}].wait = forced ? 1 : 0;
  flight_.note(last_event_, FlightEntry::Kind::kWait, src, dst, handle, 0,
               forced ? "forced" : "optimistic");
}

void Observability::on_decision(Decision d) {
  if (d.t > last_event_) last_event_ = d.t;
  flight_.note(d.t, FlightEntry::Kind::kDecision, d.picked_dev, d.dst,
               d.handle, 0, to_string(d.pick));
  decisions_.push_back(std::move(d));
}

void Observability::on_fault_mark(sim::Time t, std::string what,
                                  std::string detail) {
  if (t > last_event_) last_event_ = t;
  count_fault(what);
  flight_.note(t, FlightEntry::Kind::kFault, -1, -1, 0, 0, what.c_str());
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

void Observability::on_transfer(Xfer k, std::uint64_t handle, int src, int dst,
                                sim::Interval iv, std::size_t bytes,
                                bool chained) {
  if (iv.end > last_event_) last_event_ = iv.end;
  {
    const char* tag = k == Xfer::kH2D ? "h2d" : k == Xfer::kD2D ? "d2d"
                                                                : "d2h";
    flight_.note(iv.end, FlightEntry::Kind::kTransfer,
                 k == Xfer::kH2D ? -1 : src, k == Xfer::kD2H ? -1 : dst,
                 handle, bytes, chained ? (k == Xfer::kD2D ? "d2d-chained"
                                                           : tag)
                                        : tag);
  }
  if (k == Xfer::kD2H) return;
  RxState& to = rx_[RxKey{handle, dst}];
  if (k == Xfer::kD2D && chained) {
    // This copy is the forwarding leg of a wait: connect it back to the
    // reception it chained off (still the most recent rx on `src`).
    auto from = rx_.find(RxKey{handle, src});
    if (from != rx_.end() && from->second.tid) {
      Flow f;
      f.handle = handle;
      f.src_dev = src;
      f.dst_dev = dst;
      f.src_tid = from->second.tid;
      f.src_iv = from->second.iv;
      f.dst_iv = iv;
      f.forced = to.wait == 1;
      flows_.push_back(f);
    }
    to.wait = -1;
  }
  to.tid = k == Xfer::kH2D ? 1 : 3;
  to.iv = iv;
}

Series* Observability::ready_series(int dev) {
  auto d = static_cast<std::size_t>(dev);
  if (!ready_[d])
    ready_[d] = &reg_.series("ready.gpu" + std::to_string(dev));
  return ready_[d];
}

sim::Time Observability::span() const {
  sim::Time s = last_event_;
  for (const auto& l : links_)
    if (l->last_end() > s) s = l->last_end();
  return s;
}

void Observability::clear() {
  for (auto& l : links_) l->reset();
  decisions_.clear();
  flows_.clear();
  fault_marks_.clear();
  fault_counts_.clear();
  std::fill(hits_.begin(), hits_.end(), 0);
  std::fill(misses_.begin(), misses_.end(), 0);
  std::fill(inflight_hits_.begin(), inflight_hits_.end(), 0);
  std::fill(evict_clean_.begin(), evict_clean_.end(), 0);
  std::fill(evict_dirty_.begin(), evict_dirty_.end(), 0);
  opt_waits_ = forced_waits_ = 0;
  last_event_ = 0.0;
  rx_.clear();
  flight_.clear();
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
  }
  set("waits.optimistic", static_cast<double>(opt_waits_));
  set("waits.forced", static_cast<double>(forced_waits_));
  set("decisions", static_cast<double>(decisions_.size()));
  set("flows", static_cast<double>(flows_.size()));
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
  reg_.set_gauge("span", span());
}

}  // namespace xkb::obs
