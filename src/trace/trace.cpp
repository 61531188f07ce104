#include "trace/trace.hpp"

#include <algorithm>
#include <initializer_list>

namespace xkb::trace {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kHtoD: return "memcpy HtoD";
    case OpKind::kDtoH: return "memcpy DtoH";
    case OpKind::kPtoP: return "memcpy PtoP";
    case OpKind::kKernel: return "GPU Kernel";
  }
  return "?";
}

namespace {

/// The value of `E` whose to_string is `s`, among `all`.
template <class E>
bool parse_name(const std::string& s, std::initializer_list<E> all, E& out) {
  for (E v : all)
    if (s == to_string(v)) {
      out = v;
      return true;
    }
  return false;
}

}  // namespace

bool parse_kind(const std::string& s, OpKind& out) {
  return parse_name(s, {OpKind::kHtoD, OpKind::kDtoH, OpKind::kPtoP,
                        OpKind::kKernel}, out);
}

const char* to_string(Access a) {
  switch (a) {
    case Access::kR: return "r";
    case Access::kW: return "w";
    case Access::kRW: return "rw";
  }
  return "?";
}

const char* to_string(Pick p) {
  switch (p) {
    case Pick::kHost: return "host";
    case Pick::kDevice: return "device";
    case Pick::kWaitDevice: return "wait-device";
    case Pick::kWaitHost: return "wait-host";
  }
  return "?";
}

const char* to_string(TransferKind k) {
  switch (k) {
    case TransferKind::kH2D: return "h2d";
    case TransferKind::kD2D: return "d2d";
    case TransferKind::kD2H: return "d2h";
    case TransferKind::kAny: return "any";
  }
  return "?";
}

bool parse(const std::string& s, Access& out) {
  return parse_name(s, {Access::kR, Access::kW, Access::kRW}, out);
}

bool parse(const std::string& s, Pick& out) {
  return parse_name(s, {Pick::kHost, Pick::kDevice, Pick::kWaitDevice,
                        Pick::kWaitHost}, out);
}

bool parse(const std::string& s, TransferKind& out) {
  return parse_name(s, {TransferKind::kH2D, TransferKind::kD2D,
                        TransferKind::kD2H, TransferKind::kAny}, out);
}

void Trace::add(Record r) {
  max_device_ = std::max(max_device_, r.device);
  records_.push_back(std::move(r));
}

void Trace::clear() {
  records_.clear();
  max_device_ = -1;
}

void Breakdown::add(OpKind k, double seconds) {
  switch (k) {
    case OpKind::kHtoD: htod += seconds; break;
    case OpKind::kDtoH: dtoh += seconds; break;
    case OpKind::kPtoP: ptop += seconds; break;
    case OpKind::kKernel: kernel += seconds; break;
  }
}

Breakdown Trace::breakdown(int device) const {
  Breakdown b;
  for (const Record& r : records_)
    if (device < 0 || r.device == device) b.add(r.kind, r.end - r.start);
  return b;
}

std::vector<Breakdown> Trace::breakdowns(int devices) const {
  std::vector<Breakdown> out(static_cast<std::size_t>(devices));
  for (const Record& r : records_)
    if (r.device >= 0 && r.device < devices)
      out[static_cast<std::size_t>(r.device)].add(r.kind, r.end - r.start);
  return out;
}

sim::Time Trace::span() const {
  sim::Time t = 0.0;
  for (const Record& r : records_) t = std::max(t, r.end);
  return t;
}

sim::Time Trace::t0() const {
  if (records_.empty()) return 0.0;
  sim::Time t = records_.front().start;
  for (const Record& r : records_) t = std::min(t, r.start);
  return t;
}

std::size_t Trace::bytes(OpKind kind) const {
  std::size_t total = 0;
  for (const Record& r : records_)
    if (r.kind == kind) total += r.bytes;
  return total;
}

}  // namespace xkb::trace
