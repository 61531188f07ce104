// The simulated multi-GPU machine: topology + channels + streams + caches.
//
// A Platform instantiates the resources the discrete-event simulation runs
// on, mirroring the DGX-1 of the paper:
//   * per host-link (PCIe switch) one channel per direction -- two GPUs
//     share each switch, so their H2D traffic contends, a first-order
//     limiter the paper identifies;
//   * per directed GPU pair one peer channel at the Fig. 2 bandwidth;
//   * per GPU one h2d/d2h submission view plus `kernel_streams` concurrent
//     kernel streams (XKaapi runs each operation type on its own stream
//     with multiple kernel streams -- Section II-B);
//   * per GPU a software-cache capacity (32 GB on the V100-SXM2).
// All operations are recorded in the Trace.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hpp"
#include "runtime/perf_model.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "topo/topology.hpp"
#include "trace/trace.hpp"

namespace xkb::check {
class Checker;
}

namespace xkb::obs {
class Observability;
}

namespace xkb::fault {
class Injector;
}

namespace xkb::rt {

struct PlatformOptions {
  /// Execute functional kernel payloads and real byte movement (tests);
  /// when false only virtual time advances (paper-scale benches).
  bool functional = false;
  int kernel_streams = 2;
  std::size_t device_capacity = 32ull << 30;  ///< bytes per GPU (V100 32GB)
  mem::EvictionPolicy eviction = mem::EvictionPolicy::kReadOnlyFirst;
};

class Platform {
 public:
  Platform(topo::Topology topo, PerfModel perf, PlatformOptions opt);

  sim::Engine& engine() { return engine_; }
  const topo::Topology& topology() const { return topo_; }
  const PerfModel& perf() const { return perf_; }
  const PlatformOptions& options() const { return opt_; }
  trace::Trace& trace() { return trace_; }
  mem::DeviceCache& cache(int dev) { return *caches_[dev]; }
  int num_gpus() const { return topo_.num_gpus(); }

  /// Attach/detach the validation layer (owned by the Runtime).  The
  /// DataManager reaches the checker through here; null when disabled.
  void set_checker(check::Checker* c) { checker_ = c; }
  check::Checker* checker() const { return checker_; }

  /// Attach/detach the observability layer: hands it this platform's
  /// trace (the record its transfer/time counters derive from) and
  /// registers a link-utilization probe on every directed channel (host
  /// links per direction, every peer channel, the host worker).  Must run
  /// before the Runtime is constructed (it caches registry series
  /// pointers); null detaches the trace and all probes.
  void set_obs(obs::Observability* o);
  obs::Observability* obs() const { return obs_; }

  /// Attach the fault injector (owned by the caller, like obs): binds the
  /// platform-side link hooks so plan events can mutate the live topology
  /// and channels.  Must run before the Runtime is constructed -- the
  /// Runtime binds the device-failure hook and arms the plan.  The
  /// DataManager reaches the injector through here; null when disabled.
  void set_fault(fault::Injector* f);
  fault::Injector* fault() const { return fault_; }

  // Fault application (invoked by the injector's silent plan events and,
  // for device failure, by the Runtime after draining).  Each mutates the
  // dynamic topology state *and* mirrors the new bandwidth onto the live
  // channels, so both the heuristics' rank view and the DES cost model
  // shift at the same virtual instant.
  void apply_link_brownout(int a, int b, double fraction);
  void apply_link_heal(int a, int b);
  void apply_link_down(int a, int b);
  void apply_device_failure(int g);

  bool device_failed(int g) const { return topo_.device_failed(g); }
  int num_alive_gpus() const { return topo_.num_alive_gpus(); }

  // Copies.  `tile` is the DataHandle id stamped on the trace record
  // (trace::kNoTile for raw copies); `chain` marks a peer copy that
  // forwards a waited-on reception.
  /// Host -> device copy over the GPU's (possibly shared) host link.
  sim::Interval copy_h2d(int dev, std::size_t bytes, sim::Callback done,
                         std::uint64_t tile = trace::kNoTile);
  /// Device -> host copy.
  sim::Interval copy_d2h(int dev, std::size_t bytes, sim::Callback done,
                         std::uint64_t tile = trace::kNoTile);
  /// Direct peer copy (src must have a peer path to dst).
  sim::Interval copy_p2p(int src, int dst, std::size_t bytes,
                         sim::Callback done,
                         std::uint64_t tile = trace::kNoTile,
                         trace::Chain chain = trace::Chain::kNone);

  /// Launch a kernel on the least-loaded kernel stream of `dev`.  The
  /// chosen stream index is written to `lane_out` when non-null (the
  /// checker's lane-FIFO happens-before edges need it).
  sim::Interval launch_kernel(int dev, double seconds, double flops,
                              const std::string& label, sim::Callback done,
                              int* lane_out = nullptr);

  /// Host-side work (layout conversions of the Chameleon LAPACK baseline).
  sim::Interval host_work(double seconds, sim::Callback done);

  /// Earliest time a new kernel could start on `dev`.
  sim::Time kernel_available_at(int dev) const;

  /// Aggregate busy time of all kernel streams of `dev`.
  double kernel_busy(int dev) const;

  /// Peer channels materialised so far (lazy: one per directed pair that
  /// actually moved bytes -- the topo_bench memory gate reads this).
  std::size_t num_p2p_channels() const { return p2p_.size(); }

 private:
  topo::Topology topo_;
  PerfModel perf_;
  PlatformOptions opt_;
  sim::Engine engine_;
  trace::Trace trace_;

  std::vector<std::unique_ptr<sim::Channel>> h2d_;  // per host link
  std::vector<std::unique_ptr<sim::Channel>> d2h_;  // per host link
  /// Directed peer channels, created on first use.  A 1024-device machine
  /// only pays for the pairs its workload actually exercises; creation is
  /// deterministic (single-threaded DES, and a Channel's constructor has no
  /// engine side effects).  std::map so detach/re-attach walks a sorted,
  /// stable order.
  std::map<std::pair<int, int>, std::unique_ptr<sim::Channel>> p2p_;
  std::vector<std::vector<std::unique_ptr<sim::FifoResource>>> kstreams_;
  std::unique_ptr<sim::FifoResource> host_worker_;
  std::vector<std::unique_ptr<mem::DeviceCache>> caches_;
  check::Checker* checker_ = nullptr;
  obs::Observability* obs_ = nullptr;
  fault::Injector* fault_ = nullptr;

  void sync_link_bandwidth(int a, int b);
  sim::Channel& p2p_channel(int src, int dst);
};

}  // namespace xkb::rt
