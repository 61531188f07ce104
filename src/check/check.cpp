#include "check/check.hpp"

#include <algorithm>
#include <functional>
#include <type_traits>

namespace xkb::check {

namespace {

/// Violation text: strings as they are, numbers in decimal.
template <class... A>
std::string str(const A&... parts) {
  std::string s;
  (
      [&] {
        if constexpr (std::is_arithmetic_v<A>)
          s += std::to_string(parts);
        else
          s += parts;
      }(),
      ...);
  return s;
}

/// Orders per-device shadow entries by device id.
constexpr auto by_dev = [](const auto& d, int dev) { return d.dev < dev; };

// Event tags folded into the FNV stream hash (stable across builds).
enum : std::uint64_t {
  kTagSubmit = 0x51,
  kTagKernel = 0x52,
  kTagFinish = 0x53,
  kTagComplete = 0x54,
  kTagSource = 0x55,
  kTagTransfer = 0x56,
  kTagArrival = 0x57,
  kTagWritten = 0x58,
  kTagHostWrite = 0x59,
  kTagFlushIssue = 0x5a,
  kTagFlushDone = 0x5b,
  kTagEvict = 0x5c,
  kTagEngine = 0x5d,
  kTagAbort = 0x5e,
  kTagDevFail = 0x5f,
  kTagLost = 0x60,
  kTagPromote = 0x61,
  kTagReplay = 0x62,
  kTagRemap = 0x63,
};

}  // namespace

const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kRace: return "race";
    case ViolationKind::kCoherence: return "coherence";
    case ViolationKind::kStats: return "stats";
    case ViolationKind::kProgress: return "progress";
  }
  return "?";
}

Checker::Checker(const CheckConfig& cfg, int num_gpus, int kernel_streams,
                 trace::SourcePolicy policy, bool optimistic_d2d)
    : cfg_(cfg),
      gpus_(num_gpus),
      streams_(static_cast<std::size_t>(kernel_streams)),
      policy_(policy),
      optimistic_(optimistic_d2d) {}

Checker::DevShadow* Checker::Shadow::find(int dev) {
  const auto it = std::lower_bound(devs.begin(), devs.end(), dev, by_dev);
  return it != devs.end() && it->dev == dev ? &*it : nullptr;
}

Checker::DevShadow& Checker::Shadow::touch(int dev) {
  auto it = std::lower_bound(devs.begin(), devs.end(), dev, by_dev);
  if (it == devs.end() || it->dev != dev) {
    it = devs.emplace(it);
    it->dev = dev;
  }
  return *it;
}

Checker::Shadow& Checker::shadow(const mem::DataHandle* h) {
  if (h->id >= shadows_.size()) shadows_.resize(h->id + 1);
  Shadow& s = shadows_[h->id];
  if (s.handle != h) {
    // First sight -- or mem::Registry::clear() handed this id to a new
    // handle, whose history starts afresh.  User data starts on the host
    // (the registry interns host-valid handles); version 0 is the initial
    // host content.
    s = Shadow{};
    s.handle = h;
    pending_recovery_.erase(h->id);
  }
  return s;
}

VectorClock& Checker::lane_clock(std::size_t lane) {
  if (lane >= lanes_.size()) lanes_.resize(lane + 1);
  return lanes_[lane];
}

void Checker::violation(ViolationKind kind, std::string msg) {
  ++total_violations_;
  if (violations_.size() < cfg_.max_recorded)
    violations_.push_back({kind, std::move(msg)});
}

// ---------------------------------------------------------------------------
// Task-graph / execution events
// ---------------------------------------------------------------------------

void Checker::on_submit(
    std::uint64_t id, std::string label,
    const std::vector<std::pair<const mem::DataHandle*, trace::Access>>&
        accesses,
    std::vector<std::uint64_t> preds) {
  if (id >= tasks_.size()) tasks_.resize(id + 1);
  TaskInfo& ti = tasks_[id];
  ti = TaskInfo{};
  ti.submitted = true;
  ti.label = std::move(label);
  ti.accesses.reserve(accesses.size());
  fold(kTagSubmit, id);
  for (const auto& [h, m] : accesses) {
    ti.accesses.push_back({h, m});
    shadow(h);  // materialize shadow state on first sight
    fold(h->id, m);
  }
  // The runtime now sorts predecessors by task id (never by pointer), so
  // the incoming order is already reproducible; keep folding in sorted
  // order anyway so the hash never depends on any caller's ordering.
  std::sort(preds.begin(), preds.end());
  for (std::uint64_t p : preds) fold(p);
  ti.preds = std::move(preds);
  // A completed task's clock is final, so the join can wait for the next
  // submit: a graph emitted up front never pays for it.
  if (!completed_unjoined_.empty()) {
    for (std::uint64_t c : completed_unjoined_)
      completed_vc_.join(tasks_[c].vc);
    completed_unjoined_.clear();
    completed_snap_.reset();
  }
  if (!completed_vc_.empty()) {
    if (!completed_snap_)
      completed_snap_ = std::make_shared<const VectorClock>(completed_vc_);
    ti.submit_vc = completed_snap_;
  }
}

void Checker::stamp(TaskInfo& t, std::size_t lane) {
  if (t.submit_vc) t.vc.join(*t.submit_vc);
  for (std::uint64_t p : t.preds) {
    TaskInfo* pt = task(p);
    // In a healthy run every predecessor completed before this task became
    // ready; an incomplete predecessor here means the dependence edge was
    // lost (fault injection) and the race detector below will flag the
    // unordered accesses.
    if (pt && pt->completed) t.vc.join(pt->vc);
  }
  VectorClock& lc = lane_clock(lane);
  t.vc.join(lc);
  t.vc.tick(lane);
  lc = t.vc;
  t.lane = static_cast<std::uint32_t>(lane);
  t.vc_set = true;
}

void Checker::check_reads(std::uint64_t id, TaskInfo& t) {
  if (!cfg_.races) return;
  for (const AccessRec& a : t.accesses) {
    if (a.mode == trace::Access::kW) continue;
    Shadow& s = shadow(a.handle);
    if (s.write.task != 0 && s.write.task != id && !s.write.before(t.vc)) {
      const TaskInfo& w = *task(s.write.task);
      violation(ViolationKind::kRace,
                str("race: read of tile ", a.handle->id, " by task ", id, " '",
                    t.label, "' is not ordered after write by task ",
                    s.write.task, " '", w.label, "' (reader clock ",
                    t.vc.to_string(), ", writer clock ", w.vc.to_string(),
                    ")"));
    }
    s.readers.push_back({id, t.vc.at(t.lane), t.lane});
  }
}

void Checker::record_writes(std::uint64_t id, TaskInfo& t, int dev) {
  const Epoch epoch{id, t.vc.at(t.lane), t.lane};
  for (const AccessRec& a : t.accesses) {
    if (a.mode == trace::Access::kR) continue;
    Shadow& s = shadow(a.handle);
    if (cfg_.races) {
      if (s.write.task != 0 && s.write.task != id && !s.write.before(t.vc))
        violation(ViolationKind::kRace,
                  str("race: write of tile ", a.handle->id, " by task ", id,
                      " '", t.label, "' is not ordered after write by task ",
                      s.write.task, " '", task(s.write.task)->label, "'"));
      for (const Epoch& r : s.readers) {
        if (r.task == id) continue;
        if (!r.before(t.vc))
          violation(ViolationKind::kRace,
                    str("race: write of tile ", a.handle->id, " by task ", id,
                        " '", t.label, "' is not ordered after read by task ",
                        r.task, " '", task(r.task)->label, "'"));
      }
    }
    s.write = epoch;
    s.readers.clear();
    if (dev < 0) s.host_vc.join(t.vc);  // host-side writer (host_write)
  }
}

void Checker::on_kernel_issue(std::uint64_t id, int dev, int lane,
                              sim::Time start, sim::Time end) {
  fold(kTagKernel, id, dev, start, end);
  TaskInfo* t = task(id);
  if (!t) return;
  if (cfg_.coherence && device_failed(dev))
    violation(ViolationKind::kCoherence,
              str("kernel of task ", id, " '", t->label,
                  "' issued on blacklisted GPU ", dev));
  // Import the happens-before edges carried by the operand receptions, then
  // verify freshness: a kernel must start with every read operand valid on
  // its device and holding the latest version.
  for (const AccessRec& a : t->accesses) {
    if (a.mode == trace::Access::kW) continue;
    Shadow& s = shadow(a.handle);
    if (const DevShadow* d = s.find(dev)) t->vc.join(d->arrival_vc);
    if (cfg_.coherence) {
      const mem::Replica& r = a.handle->dev[static_cast<std::size_t>(dev)];
      if (r.state != mem::ReplicaState::kValid)
        violation(ViolationKind::kCoherence,
                  str("kernel of task ", id, " '", t->label, "' started on GPU ",
                      dev, " with operand tile ", a.handle->id, " in state '",
                      mem::to_string(r.state), "'"));
      else if (s.dev_version(dev) != s.version)
        violation(ViolationKind::kCoherence,
                  str("stale read: task ", id, " '", t->label, "' on GPU ", dev,
                      " reads tile ", a.handle->id, " at version ",
                      s.dev_version(dev), " but the latest write is version ",
                      s.version));
    }
  }
  stamp(*t, lane_kernel(dev, lane));
  check_reads(id, *t);
}

void Checker::on_task_finish(std::uint64_t id, int dev, sim::Time now) {
  fold(kTagFinish, id, now);
  TaskInfo* t = task(id);
  if (!t) return;
  if (!t->vc_set) {
    // Kernel-less placement task (e.g. the 2D block-cyclic distribution):
    // no stream lane, so order it on the device's virtual lane.  Its reads
    // still carry the arrival edges and are checked like kernel reads.
    for (const AccessRec& a : t->accesses) {
      if (a.mode == trace::Access::kW) continue;
      Shadow& s = shadow(a.handle);
      if (const DevShadow* d = s.find(dev)) t->vc.join(d->arrival_vc);
      if (cfg_.coherence && s.dev_version(dev) != s.version)
        violation(ViolationKind::kCoherence,
                  str("stale read: placement task ", id, " '", t->label,
                      "' on GPU ", dev, " observes tile ", a.handle->id,
                      " at version ", s.dev_version(dev), ", latest is ",
                      s.version));
    }
    stamp(*t, lane_virtual(dev));
    check_reads(id, *t);
  }
  record_writes(id, *t, dev);
}

void Checker::on_task_complete(std::uint64_t id, sim::Time now) {
  fold(kTagComplete, id, now);
  TaskInfo* t = task(id);
  if (!t) return;
  if (!t->vc_set) {
    // Host-side task (memory_coherent / host_write): executes on the host
    // lane; reads carry the host copy's happens-before edges.
    for (const AccessRec& a : t->accesses) {
      if (a.mode == trace::Access::kW) continue;
      Shadow& s = shadow(a.handle);
      t->vc.join(s.host_vc);
      if (cfg_.coherence && s.host_version != s.version)
        violation(ViolationKind::kCoherence,
                  str("host task ", id, " '", t->label, "' observes tile ",
                      a.handle->id, " at host version ", s.host_version,
                      ", latest is ", s.version));
    }
    stamp(*t, /*host lane=*/0);
    check_reads(id, *t);
    record_writes(id, *t, /*dev=*/-1);
  }
  t->completed = true;
  if (t->vc_set) completed_unjoined_.push_back(id);
}

// ---------------------------------------------------------------------------
// Replica-protocol events
// ---------------------------------------------------------------------------

void Checker::on_source_choice(const mem::DataHandle* h, int dst,
                               trace::Pick pick, int src, bool forced) {
  fold(kTagSource, h->id, dst, pick, src + 1);
  if (!cfg_.coherence) return;
  const bool host_valid = h->host.state == mem::ReplicaState::kValid;
  Shadow& s = shadow(h);
  switch (pick) {
    case trace::Pick::kHost:
      if (!host_valid)
        violation(ViolationKind::kCoherence,
                  str("choose_source picked the host for tile ", h->id,
                      " -> GPU ", dst, " but the host copy is not valid"));
      break;
    case trace::Pick::kDevice: {
      const mem::Replica& r = h->dev[static_cast<std::size_t>(src)];
      if (device_failed(src))
        violation(ViolationKind::kCoherence,
                  str("choose_source picked failed GPU ", src,
                      " as source for tile ", h->id, " -> GPU ", dst));
      if (r.state != mem::ReplicaState::kValid)
        violation(ViolationKind::kCoherence,
                  str("choose_source picked invalid replica on GPU ", src,
                      " for tile ", h->id, " -> GPU ", dst));
      else if (s.dev_version(src) != s.version)
        violation(ViolationKind::kCoherence,
                  str("choose_source picked stale replica on GPU ", src,
                      " for tile ", h->id, " (version ", s.dev_version(src),
                      ", latest ", s.version, ")"));
      if (policy_ == trace::SourcePolicy::kHostOnly && host_valid)
        violation(ViolationKind::kCoherence,
                  str("host-only source policy chose a device source for tile ",
                      h->id, " although the host copy is valid"));
      break;
    }
    case trace::Pick::kWaitDevice: {
      const mem::Replica& r = h->dev[static_cast<std::size_t>(src)];
      if (device_failed(src))
        violation(ViolationKind::kCoherence,
                  str("choose_source chained tile ", h->id,
                      " on a reception at failed GPU ", src));
      if (r.state != mem::ReplicaState::kInFlight)
        violation(ViolationKind::kCoherence,
                  str("optimistic forwarding chained on GPU ", src,
                      " for tile ", h->id,
                      " but no reception is in flight there"));
      if (!forced) {
        ++optimistic_seen_;
        if (!optimistic_)
          violation(ViolationKind::kCoherence,
                    str("optimistic wait chosen for tile ", h->id,
                        " although optimistic_d2d is disabled"));
        if (!host_valid)
          violation(ViolationKind::kCoherence,
                    str("optimistic wait for tile ", h->id,
                        " marked as chosen, but the host copy is invalid "
                        "(it should be a forced wait)"));
      } else {
        ++forced_seen_;
        if (host_valid)
          violation(ViolationKind::kCoherence,
                    str("forced wait for tile ", h->id,
                        " although a valid host copy exists"));
      }
      break;
    }
    case trace::Pick::kWaitHost:
      if (h->host.state != mem::ReplicaState::kInFlight)
        violation(ViolationKind::kCoherence,
                  str("waiting on a host reception for tile ", h->id,
                      " but the host copy is not in flight"));
      break;
  }
}

void Checker::on_transfer_issue(trace::TransferKind k,
                                const mem::DataHandle* h, int src, int dst,
                                sim::Time start, sim::Time end) {
  fold(kTagTransfer, k, h->id, src + 1, dst, start, end);
  Shadow& s = shadow(h);
  if (cfg_.coherence && device_failed(dst))
    violation(ViolationKind::kCoherence,
              str("transfer of tile ", h->id,
                  " issued towards blacklisted GPU ", dst));
  if (cfg_.coherence && k == trace::TransferKind::kD2D &&
      device_failed(src))
    violation(ViolationKind::kCoherence,
              str("D2D of tile ", h->id, " issued from blacklisted GPU ", src));
  if (k == trace::TransferKind::kH2D) {
    ++h2d_seen_;
    if (cfg_.coherence && h->host.state != mem::ReplicaState::kValid)
      violation(ViolationKind::kCoherence,
                str("H2D issued for tile ", h->id, " -> GPU ", dst,
                    " with an invalid host copy"));
    if (cfg_.coherence && s.host_version != s.version)
      violation(ViolationKind::kCoherence,
                str("H2D issued for tile ", h->id,
                    " carries stale host version ", s.host_version,
                    " (latest ", s.version, ")"));
    DevShadow& d = s.touch(dst);
    d.in_version = s.host_version;
    d.in_vc = s.host_vc;
  } else if (k == trace::TransferKind::kD2D) {
    ++d2d_seen_;
    if (cfg_.coherence && h->dev[src].state != mem::ReplicaState::kValid)
      violation(ViolationKind::kCoherence,
                str("D2D issued for tile ", h->id, " from GPU ", src,
                    " whose replica is not valid"));
    if (cfg_.coherence && s.dev_version(src) != s.version)
      violation(ViolationKind::kCoherence,
                str("D2D issued for tile ", h->id, " from GPU ", src,
                    " holding stale version ", s.dev_version(src),
                    " (latest ", s.version, ")"));
    DevShadow& d = s.touch(dst);
    const DevShadow* from = s.find(src);  // after the touch: it may move
    d.in_version = from ? from->version : kNoVersion;
    d.in_vc = from ? from->arrival_vc : VectorClock{};
    if (const TaskInfo* w = task(s.write.task)) d.in_vc.join(w->vc);
  }
}

void Checker::on_arrival(const mem::DataHandle* h, int dev, sim::Time now) {
  fold(kTagArrival, h->id, dev, now);
  ++arrivals_;
  Shadow& s = shadow(h);
  DevShadow& d = s.touch(dev);
  if (cfg_.coherence && d.in_version == kNoVersion)
    violation(ViolationKind::kCoherence,
              str("arrival of tile ", h->id, " on GPU ", dev,
                  " without a matching transfer issue"));
  else if (cfg_.coherence && d.in_version != s.version)
    violation(ViolationKind::kCoherence,
              str("arrival delivered stale version ", d.in_version,
                  " of tile ", h->id, " to GPU ", dev, " (latest ", s.version,
                  ")"));
  d.version = d.in_version;
  d.in_version = kNoVersion;
  // The arrival clock now holds the reception's: drop the copy (a stray
  // second arrival would only re-join what is already there).
  d.arrival_vc.join(d.in_vc);
  d.in_vc = VectorClock{};
}

void Checker::on_mark_written(const mem::DataHandle* h, int dev,
                              sim::Time now) {
  fold(kTagWritten, h->id, dev, now);
  Shadow& s = shadow(h);
  ++s.version;
  s.touch(dev);
  for (DevShadow& d : s.devs) d.version = d.dev == dev ? s.version : kNoVersion;
  if (!cfg_.coherence) return;
  // At most one dirty replica, and it must be the writer's.
  int dirty_count = 0;
  for (const auto& [g, r] : h->dev) {
    if (r.dirty) ++dirty_count;
    if (g != dev && r.state == mem::ReplicaState::kValid)
      violation(ViolationKind::kCoherence,
                str("write to tile ", h->id, " on GPU ", dev,
                    " left a valid peer replica on GPU ", g));
  }
  if (dirty_count != 1 || !h->dev[dev].dirty)
    violation(ViolationKind::kCoherence,
              str("tile ", h->id, " has ", dirty_count,
                  " dirty replicas after a write on GPU ", dev,
                  " (expected exactly the writer's)"));
  if (h->host.state == mem::ReplicaState::kValid)
    violation(ViolationKind::kCoherence,
              str("host copy of tile ", h->id,
                  " still valid after a device write (lazy coherency "
                  "requires invalidation)"));
}

void Checker::on_host_write(const mem::DataHandle* h) {
  fold(kTagHostWrite, h->id);
  Shadow& s = shadow(h);
  ++s.version;
  s.host_version = s.version;
  for (DevShadow& d : s.devs) d.version = kNoVersion;
  if (!cfg_.coherence) return;
  for (const auto& [g, r] : h->dev)
    if (r.state != mem::ReplicaState::kInvalid)
      violation(ViolationKind::kCoherence,
                str("host write to tile ", h->id,
                    " left a non-invalid replica on GPU ", g));
}

void Checker::on_host_flush_issue(const mem::DataHandle* h, int src,
                                  std::uint64_t version) {
  fold(kTagFlushIssue, h->id, src, version);
  ++d2h_seen_;
  Shadow& s = shadow(h);
  s.d2h_inflight = true;
  if (cfg_.coherence && device_failed(src))
    violation(ViolationKind::kCoherence,
              str("host flush of tile ", h->id,
                  " issued from blacklisted GPU ", src));
  if (cfg_.coherence && version != s.version)
    violation(ViolationKind::kCoherence,
              str("flush of tile ", h->id, " from GPU ", src,
                  " issued for version ", version, " but the latest is ",
                  s.version));
}

void Checker::on_host_flush_done(const mem::DataHandle* h, int src, bool stale,
                                 std::uint64_t version, sim::Time now) {
  fold(kTagFlushDone, h->id, src, stale, now);
  Shadow& s = shadow(h);
  s.d2h_inflight = false;
  if (stale) return;  // payload discarded; a re-flush (if any) re-issues
  if (cfg_.coherence && version != s.version)
    violation(ViolationKind::kCoherence,
              str("flush published stale version ", version, " of tile ",
                  h->id, " to the host (latest ", s.version, ")"));
  s.host_version = version;
  if (const DevShadow* d = s.find(src)) s.host_vc.join(d->arrival_vc);
  if (const TaskInfo* w = task(s.write.task)) s.host_vc.join(w->vc);
}

void Checker::on_evict(const mem::DataHandle* h, int dev, bool was_dirty) {
  fold(kTagEvict, h->id, dev, was_dirty);
  if (!cfg_.coherence) return;
  Shadow& s = shadow(h);
  if (was_dirty) {
    // The caller is about to flush the evicted bytes; they must be current.
    if (s.dev_version(dev) != s.version)
      violation(ViolationKind::kCoherence,
                str("dirty eviction of tile ", h->id, " from GPU ", dev,
                    " holds stale version ", s.dev_version(dev), " (latest ",
                    s.version, ")"));
    return;
  }
  if (!current_version_survives(h, s, dev))
    violation(ViolationKind::kCoherence,
              str("eviction dropped the last copy of tile ", h->id,
                  " version ", s.version, " (from GPU ", dev, ")"));
}

bool Checker::current_version_survives(const mem::DataHandle* h,
                                       const Shadow& s,
                                       int excluding_dev) const {
  if (h->host.state == mem::ReplicaState::kValid &&
      s.host_version == s.version)
    return true;
  if (s.d2h_inflight) return true;  // a flush of the current version is due
  for (const auto& [g, r] : h->dev) {
    const DevShadow* d = g == excluding_dev ? nullptr : s.find(g);
    if (!d) continue;
    if (r.state == mem::ReplicaState::kValid && d->version == s.version)
      return true;
    if (r.state == mem::ReplicaState::kInFlight && d->in_version == s.version)
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fault-recovery events
// ---------------------------------------------------------------------------

void Checker::on_transfer_abort(trace::TransferKind k,
                                const mem::DataHandle* h, int src, int dst,
                                std::size_t attempts, std::size_t cap) {
  fold(kTagAbort, k, h->id, src + 1, dst + 1, attempts);
  Shadow& s = shadow(h);
  if (k == trace::TransferKind::kD2H) {
    ++d2h_aborts_seen_;
    // The flush will never publish; stop counting it as survival evidence.
    s.d2h_inflight = false;
  } else {
    ++rx_aborts_seen_;
    // The reception was cancelled: no arrival will consume the in-flight
    // version, so clear it (current_version_survives must not count a copy
    // that is no longer coming).
    if (DevShadow* d = dst >= 0 ? s.find(dst) : nullptr) {
      d->in_version = kNoVersion;
      d->in_vc = VectorClock{};
    }
  }
  if (cap != 0 && attempts > cap)
    violation(ViolationKind::kCoherence,
              str("unbounded retry: transfer of tile ", h->id, " -> ",
                  dst < 0 ? std::string("host") : str("GPU ", dst),
                  " aborted on attempt ", attempts, " past the retry cap of ",
                  cap));
}

void Checker::on_device_failure(int dev) {
  fold(kTagDevFail, dev);
  if (failed_devs_.empty()) failed_devs_.assign(static_cast<std::size_t>(gpus_), 0);
  if (dev >= 0 && dev < gpus_) failed_devs_[static_cast<std::size_t>(dev)] = 1;
}

void Checker::on_replica_lost(const mem::DataHandle* h, int dev,
                              bool was_dirty) {
  fold(kTagLost, h->id, dev, was_dirty);
  Shadow& s = shadow(h);
  if (DevShadow* d = s.find(dev)) {
    d->version = kNoVersion;
    d->in_version = kNoVersion;  // any reception to the dead GPU dies
  }
  if (!cfg_.coherence) return;
  // If the purge dropped the last holder of the current version, recovery
  // owes us a replay (or a diagnosed data loss, which aborts the run before
  // finalize).  A surviving copy -- promoted or not -- settles it here.
  if (!current_version_survives(h, s, dev))
    pending_recovery_[h->id] =
        str("tile ", h->id, " version ", s.version, " lost with ",
            was_dirty ? "dirty" : "clean", " replica on failed GPU ", dev);
}

void Checker::on_promote(const mem::DataHandle* h, int dev) {
  fold(kTagPromote, h->id, dev);
  Shadow& s = shadow(h);
  pending_recovery_.erase(h->id);
  if (!cfg_.coherence) return;
  const mem::Replica& r = h->dev[static_cast<std::size_t>(dev)];
  if (r.state != mem::ReplicaState::kValid || !r.dirty)
    violation(ViolationKind::kCoherence,
              str("promotion of tile ", h->id, " on GPU ", dev,
                  " did not leave a valid dirty replica"));
  else if (s.dev_version(dev) != s.version)
    violation(ViolationKind::kCoherence,
              str("promoted replica of tile ", h->id, " on GPU ", dev,
                  " holds stale version ", s.dev_version(dev), " (latest ",
                  s.version, ")"));
}

void Checker::on_replay(const mem::DataHandle* h, std::uint64_t task) {
  fold(kTagReplay, h->id, task);
  // The replayed producer flows through on_submit/on_mark_written like any
  // task; once it rewrites the tile the current version exists again.
  pending_recovery_.erase(h->id);
}

void Checker::on_task_remap(std::uint64_t id, int from_dev, int to_dev) {
  fold(kTagRemap, id, from_dev, to_dev);
  TaskInfo* t = task(id);
  if (!t) return;
  // The execution on from_dev was cancelled: forget its stamp and recorded
  // reads so the re-execution on to_dev re-orders them from scratch.  Reads
  // are only ever recorded on the task's own operands.
  if (t->vc_set)
    for (const AccessRec& a : t->accesses)
      std::erase_if(shadow(a.handle).readers,
                    [id](const Epoch& r) { return r.task == id; });
  t->vc = VectorClock{};
  t->vc_set = false;
}

// ---------------------------------------------------------------------------
// Engine events, finalization, reporting
// ---------------------------------------------------------------------------

void Checker::on_engine_event(sim::Time t, std::uint64_t seq) {
  fold(kTagEngine, seq, t);
}

void Checker::finalize(const StatsView& st) {
  // --- counter reconciliation -------------------------------------------
  auto expect_eq = [this](std::size_t got, std::size_t want,
                          const char* what) {
    if (got != want)
      violation(ViolationKind::kStats,
                str(what, " counter mismatch: runtime reports ", got,
                    ", checker observed ", want));
  };
  expect_eq(st.h2d, h2d_seen_, "h2d");
  expect_eq(st.d2h, d2h_seen_, "d2h");
  expect_eq(st.d2d, d2d_seen_, "d2d");
  expect_eq(st.optimistic_waits, optimistic_seen_, "optimistic_waits");
  expect_eq(st.forced_waits, forced_seen_, "forced_waits");
  expect_eq(st.transfer_aborts, rx_aborts_seen_ + d2h_aborts_seen_,
            "transfer_aborts");
  if (!optimistic_ && st.optimistic_waits != 0)
    violation(ViolationKind::kStats,
              str("optimistic_waits = ", st.optimistic_waits,
                  " under an ablation configuration (must be 0)"));
  // Every issued reception either materializes a replica or was aborted by
  // fault recovery -- nothing may simply evaporate.
  if (st.completed == st.submitted &&
      h2d_seen_ + d2d_seen_ != arrivals_ + rx_aborts_seen_)
    violation(ViolationKind::kStats,
              str("transfer ledger does not balance: ", h2d_seen_, " H2D + ",
                  d2d_seen_, " D2D issued, but ", arrivals_,
                  " replicas materialized and ", rx_aborts_seen_,
                  " receptions aborted"));

  // --- progress audit ---------------------------------------------------
  if (cfg_.progress && st.completed != st.submitted) {
    std::size_t stuck = 0;
    std::string dump;
    for (std::uint64_t id = 1; id < tasks_.size(); ++id) {
      const TaskInfo& t = tasks_[id];
      if (!t.submitted || t.completed) continue;
      ++stuck;
      if (stuck <= 8) {
        std::string waits;
        for (std::uint64_t p : t.preds) {
          const TaskInfo* pt = task(p);
          if (pt && !pt->completed) waits += str(waits.empty() ? "" : ",", p);
        }
        dump += str("\n  task ", id, " '", t.label, "' waiting on [", waits,
                    "]");
      }
    }
    violation(ViolationKind::kProgress,
              str("engine drained with ", stuck, " of ", st.submitted,
                  " tasks incomplete (deadlock or dropped completion)", dump));

    // Wait-for cycle detection over the incomplete tasks: task -> its
    // incomplete predecessors.  A cycle is a hard failure with the cycle
    // dumped; acyclic stuck graphs point at a dropped completion event.
    std::vector<std::uint8_t> color(tasks_.size(), 0);  // 0 new, 1 open, 2 done
    std::vector<std::uint64_t> path;
    std::string cycle;
    std::function<bool(std::uint64_t)> dfs = [&](std::uint64_t id) -> bool {
      color[id] = 1;
      path.push_back(id);
      const TaskInfo* t = task(id);
      if (t)
        for (std::uint64_t p : t->preds) {
          const TaskInfo* pt = task(p);
          if (!pt || pt->completed) continue;
          if (color[p] == 1) {
            auto it = std::find(path.begin(), path.end(), p);
            for (; it != path.end(); ++it)
              cycle += str(cycle.empty() ? "" : " -> ", *it);
            cycle += str(" -> ", p);
            return true;
          }
          if (color[p] == 0 && dfs(p)) return true;
        }
      path.pop_back();
      color[id] = 2;
      return false;
    };
    for (std::uint64_t id = 1; id < tasks_.size(); ++id) {
      const TaskInfo& t = tasks_[id];
      if (t.submitted && !t.completed && color[id] == 0 && dfs(id)) {
        violation(ViolationKind::kProgress,
                  "wait-for cycle detected: " + cycle);
        break;
      }
    }
  }

  // --- final protocol scan ----------------------------------------------
  if (cfg_.coherence) {
    // Both scans run in tile-id order: the report is deterministic.
    for (const auto& [id, msg] : pending_recovery_)
      violation(ViolationKind::kCoherence,
                str("unresolved recovery: ", msg,
                    " and neither a surviving copy nor a replay restored it"));
    for (const Shadow& s : shadows_) {
      const mem::DataHandle* h = s.handle;
      if (!h || pending_recovery_.count(h->id)) continue;  // reported above
      int dirty = 0;
      for (const auto& [g, r] : h->dev) {
        if (r.dirty) ++dirty;
        if (r.pins != 0)
          violation(ViolationKind::kCoherence,
                    str("pin leak: tile ", h->id, " on GPU ", g, " still has ",
                        r.pins, " pins after the run"));
      }
      if (dirty > 1)
        violation(ViolationKind::kCoherence,
                  str("tile ", h->id, " ends the run with ", dirty,
                      " dirty replicas"));
      if (st.completed == st.submitted &&
          !current_version_survives(h, s, /*excluding_dev=*/-1))
        violation(ViolationKind::kCoherence,
                  str("tile ", h->id, " lost its current version ", s.version,
                      " by the end of the run"));
    }
  }
}

std::string Checker::report() const {
  if (total_violations_ == 0) return {};
  std::string out =
      str("xkb::check found ", total_violations_, " violation(s):\n");
  for (const Violation& v : violations_)
    out += str("  [", to_string(v.kind), "] ", v.message, "\n");
  if (total_violations_ > violations_.size())
    out += str("  ... and ", total_violations_ - violations_.size(),
               " more (recording capped)\n");
  return out;
}

}  // namespace xkb::check
