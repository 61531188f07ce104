#include "fault/injector.hpp"

#include <sstream>

namespace xkb::fault {

void Injector::bind(Hooks hooks) {
  if (hooks.brownout) hooks_.brownout = std::move(hooks.brownout);
  if (hooks.restore) hooks_.restore = std::move(hooks.restore);
  if (hooks.link_down) hooks_.link_down = std::move(hooks.link_down);
  if (hooks.device_fail) hooks_.device_fail = std::move(hooks.device_fail);
  if (hooks.resolve_device) hooks_.resolve_device = std::move(hooks.resolve_device);
}

void Injector::arm(sim::Engine& eng, int num_gpus) {
  if (armed_) return;
  armed_ = true;
  xfail_consumed_.assign(plan_.events.size(), 0);
  // Resolve symbolic (.tpo-name) endpoints into device indices before any
  // range check or scheduling: the silent events capture the event by
  // value, so the indices must be final here.
  for (FaultEvent& e : plan_.events) {
    const auto resolve = [&](const std::string& name, int& idx) {
      if (name.empty()) return;
      if (!hooks_.resolve_device)
        throw FaultError("fault plan names device '" + name +
                         "' but no topology is bound to resolve it");
      idx = hooks_.resolve_device(name);
      if (idx < 0)
        throw FaultError(std::string(to_string(e.kind)) +
                         " names unknown device '" + name + "'");
    };
    resolve(e.a_name, e.a);
    resolve(e.b_name, e.b);
    if ((e.kind == FaultKind::kBrownout || e.kind == FaultKind::kLinkDown) &&
        e.a == e.b)
      throw FaultError(std::string(to_string(e.kind)) +
                       " endpoints resolve to the same device");
  }
  for (const FaultEvent& e : plan_.events) {
    switch (e.kind) {
      case FaultKind::kBrownout: {
        if (!hooks_.brownout || !hooks_.restore)
          throw FaultError("fault plan has a brownout but no platform bound");
        if (e.a >= num_gpus || e.b >= num_gpus)
          throw FaultError("brownout names GPU beyond this topology");
        eng.schedule_silent_at(e.t, [this, e] { fire_brownout(e); });
        if (e.duration > 0)
          eng.schedule_silent_at(e.t + e.duration,
                                 [this, e] { fire_heal(e); });
        break;
      }
      case FaultKind::kLinkDown: {
        if (!hooks_.link_down)
          throw FaultError("fault plan has a link-down but no platform bound");
        if (e.a >= num_gpus || e.b >= num_gpus)
          throw FaultError("link-down names GPU beyond this topology");
        eng.schedule_silent_at(e.t, [this, e] { fire_link_down(e); });
        break;
      }
      case FaultKind::kDeviceFail: {
        if (!hooks_.device_fail)
          throw FaultError(
              "fault plan has a device-fail but no runtime bound to recover");
        if (e.a >= num_gpus)
          throw FaultError("device-fail names GPU beyond this topology");
        eng.schedule_silent_at(e.t, [this, e] { fire_device_fail(e); });
        break;
      }
      case FaultKind::kTransferFail:
        break;  // consumed lazily by should_fail_transfer
    }
  }
}

XKB_SILENT void Injector::fire_brownout(const FaultEvent& e) {
  ++counters_.brownouts;
  hooks_.brownout(e.a, e.b, e.fraction);
}

XKB_SILENT void Injector::fire_heal(const FaultEvent& e) {
  ++counters_.heals;
  hooks_.restore(e.a, e.b);
}

XKB_SILENT void Injector::fire_link_down(const FaultEvent& e) {
  ++counters_.link_downs;
  hooks_.link_down(e.a, e.b);
}

XKB_SILENT void Injector::fire_device_fail(const FaultEvent& e) {
  ++counters_.device_fails;
  hooks_.device_fail(e.a);
}

bool Injector::should_fail_transfer(trace::TransferKind k, int src, int dst,
                                    sim::Time now) {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind != FaultKind::kTransferFail || xfail_consumed_[i]) continue;
    if (e.t > now) continue;
    if (e.xfer != trace::TransferKind::kAny && e.xfer != k) continue;
    if (e.a != -1 && e.a != src) continue;
    if (e.b != -1 && e.b != dst) continue;
    xfail_consumed_[i] = 1;
    ++counters_.injected_transfer_failures;
    return true;
  }
  if (plan_.fail_prob > 0.0 && rng_.next_double() < plan_.fail_prob) {
    ++counters_.injected_transfer_failures;
    return true;
  }
  return false;
}

std::size_t Injector::unconsumed_transfer_faults() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < plan_.events.size(); ++i)
    if (plan_.events[i].kind == FaultKind::kTransferFail &&
        (xfail_consumed_.empty() || !xfail_consumed_[i]))
      ++n;
  return n;
}

std::string Injector::counters_json() const {
  std::ostringstream os;
  os << "{\"brownouts\":" << counters_.brownouts
     << ",\"heals\":" << counters_.heals
     << ",\"link_downs\":" << counters_.link_downs
     << ",\"device_fails\":" << counters_.device_fails
     << ",\"injected_transfer_failures\":"
     << counters_.injected_transfer_failures
     << ",\"unconsumed_transfer_faults\":" << unconsumed_transfer_faults()
     << "}";
  return os.str();
}

}  // namespace xkb::fault
