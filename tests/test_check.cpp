// Tests of xkb::check, the opt-in validation layer.
//
// Two halves: clean runs (the checker must stay silent on correct executions
// of every heuristic configuration -- a noisy checker is useless), and fault
// injection (each mutant class from the issue -- corrupted validity bit,
// skipped dependence edge, dropped completion event -- must be detected; a
// checker that cannot fail its mutants proves nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "baselines/library_model.hpp"
#include "check/vector_clock.hpp"
#include "runtime/runtime.hpp"

namespace xkb::rt {
namespace {

struct CheckedFixture {
  explicit CheckedFixture(check::Faults faults = {},
                          HeuristicConfig heur = HeuristicConfig::xkblas())
      : plat(make_platform()),
        runtime(plat, std::make_unique<OwnerComputesScheduler>(),
                make_options(heur, faults)) {}

  static Platform make_platform() {
    PlatformOptions po;
    po.functional = false;
    return Platform(topo::Topology::dgx1(), PerfModel{}, po);
  }
  static RuntimeOptions make_options(HeuristicConfig heur,
                                     check::Faults faults) {
    RuntimeOptions ro;
    ro.heuristics = heur;
    ro.check.enabled = true;
    ro.check.faults = faults;
    return ro;
  }

  mem::DataHandle* tile(void* origin, std::size_t n = 256) {
    return runtime.registry().intern(origin, n, n, n, sizeof(double));
  }

  TaskDesc touch(mem::DataHandle* h, Access mode, int dev) {
    TaskDesc d;
    d.label = "t";
    d.accesses.push_back({h, mode});
    d.flops = 1e9;
    d.min_dim = 1024;
    d.forced_device = dev;
    return d;
  }

  bool has_kind(check::ViolationKind k) const {
    const auto& v = runtime.checker()->violations();
    return std::any_of(v.begin(), v.end(),
                       [k](const check::Violation& x) { return x.kind == k; });
  }
  bool reports(const std::string& text) const {
    return runtime.checker()->report().find(text) != std::string::npos;
  }

  Platform plat;
  Runtime runtime;
};

double bufA[4], bufB[4];

TEST(Check, CleanRunIsViolationFree) {
  CheckedFixture f;
  mem::DataHandle* a = f.tile(bufA);
  mem::DataHandle* b = f.tile(bufB);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kR, 1));   // D2D or fresh H2D
  f.runtime.submit(f.touch(a, Access::kR, 2));
  f.runtime.submit(f.touch(a, Access::kRW, 3));  // WAR + invalidations
  f.runtime.submit(f.touch(b, Access::kRW, 0));
  f.runtime.coherent_async(a);                   // D2H flush + host task
  f.runtime.run();
  const check::Checker* c = f.runtime.checker();
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->ok()) << c->report();
  EXPECT_EQ(c->total_violations(), 0u);
  EXPECT_TRUE(c->report().empty());
  // The hash folded real events, so it moved off the FNV offset basis.
  EXPECT_NE(c->event_hash(), 14695981039346656037ull);
}

TEST(Check, CleanUnderEveryHeuristicPreset) {
  for (const HeuristicConfig& heur :
       {HeuristicConfig::xkblas(), HeuristicConfig::no_heuristic(),
        HeuristicConfig::no_heuristic_no_topo()}) {
    CheckedFixture f({}, heur);
    mem::DataHandle* a = f.tile(bufA);
    for (int i = 0; i < 8; ++i)
      f.runtime.submit(f.touch(a, i % 3 == 0 ? Access::kRW : Access::kR,
                               i % f.runtime.num_gpus()));
    f.runtime.run();
    EXPECT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();
  }
}

TEST(Check, CleanCheckedGemmThroughBaselines) {
  baselines::BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = 4096;
  cfg.tile = 1024;
  cfg.check.enabled = true;
  auto model = baselines::make_xkblas(HeuristicConfig::xkblas());
  baselines::BenchResult res = model->run(cfg);
  ASSERT_TRUE(res.supported);
  ASSERT_FALSE(res.failed);
  EXPECT_TRUE(res.check_ok) << res.check_report;
  EXPECT_EQ(res.check_violations, 0u);
  EXPECT_NE(res.event_hash, 0u);
}

// Mutant 1: lose the dependence edge between a writer and a subsequent
// reader of the same tile.  Their kernels become unordered in the
// happens-before relation and the race detector must say so.
TEST(Check, SkippedDependenceEdgeIsReportedAsRace) {
  check::Faults faults;
  faults.skip_edge_pred = 1;  // task ids are assigned from 1 in submit order
  faults.skip_edge_succ = 2;
  CheckedFixture f(faults);
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kR, 0));
  f.runtime.run();
  EXPECT_FALSE(f.runtime.checker()->ok());
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kRace))
      << f.runtime.checker()->report();
}

TEST(Check, SkippedWriteWriteEdgeIsReportedAsRace) {
  check::Faults faults;
  faults.skip_edge_pred = 1;
  faults.skip_edge_succ = 2;
  CheckedFixture f(faults);
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.run();
  EXPECT_FALSE(f.runtime.checker()->ok());
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kRace))
      << f.runtime.checker()->report();
}

// Mutant 2: swallow a completion event.  The successor never becomes ready
// and the progress auditor must dump it as stuck.
TEST(Check, DroppedCompletionIsReportedAsStuck) {
  check::Faults faults;
  faults.drop_completion_task = 1;
  CheckedFixture f(faults);
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kR, 1));  // depends on task 1
  f.runtime.run();
  // The runtime never observed the swallowed completion (nor, therefore,
  // its successor's): neither task counts as completed.
  EXPECT_EQ(f.runtime.tasks_completed(), 0u);
  EXPECT_FALSE(f.runtime.checker()->ok());
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kProgress))
      << f.runtime.checker()->report();
}

// Mutant 3: corrupt a replica's validity bit directly (a replica claims to
// be valid on a device that never received the data).  The next read on
// that device observes a version that is not the latest write.
TEST(Check, CorruptedValidityBitIsReportedAsCoherence) {
  CheckedFixture f;
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.run();
  ASSERT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();

  a->dev[1].state = mem::ReplicaState::kValid;  // lie: GPU 1 has no bytes
  f.runtime.submit(f.touch(a, Access::kR, 1));
  f.runtime.run();
  EXPECT_FALSE(f.runtime.checker()->ok());
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kCoherence))
      << f.runtime.checker()->report();
}

// Mutant 4: lose the edge from a reader to the next writer of its tile, with
// the two on different GPUs.  The write is checked against every read since
// the previous write; the unordered one must be reported.
TEST(Check, WriteRacingUnorderedReadOnAnotherGpuIsReportedAsRace) {
  check::Faults faults;
  faults.skip_edge_pred = 2;  // the reader
  faults.skip_edge_succ = 3;  // the writer
  CheckedFixture f(faults);
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kR, 1));
  TaskDesc w = f.touch(a, Access::kRW, 2);
  w.flops = 1e11;  // finishes (and records its write) after the read issued
  f.runtime.submit(std::move(w));
  f.runtime.run();
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kRace))
      << f.runtime.checker()->report();
  EXPECT_TRUE(f.reports("is not ordered after read by task 2"))
      << f.runtime.checker()->report();
}

// The clean twin of the mutant above: two readers on different GPUs are
// concurrent with each other (reads never conflict), and a writer ordered
// after both by its dependence edges is no race.
TEST(Check, ConcurrentReadersThenOrderedWriterStayClean) {
  CheckedFixture f;
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kR, 1));
  f.runtime.submit(f.touch(a, Access::kR, 2));
  f.runtime.submit(f.touch(a, Access::kRW, 3));
  f.runtime.run();
  EXPECT_EQ(f.runtime.tasks_completed(), 4u);
  EXPECT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();
}

// A reader whose kernel was already issued on a GPU that then fails is
// remapped and re-executed elsewhere.  Its cancelled read must be dropped:
// the writer after it is ordered after the re-execution only, so a stale
// read record would be reported as a race.
TEST(Check, RemappedReaderDropsItsCancelledRead) {
  CheckedFixture f;
  mem::DataHandle* a = f.tile(bufA);
  TaskDesc r = f.touch(a, Access::kR, 1);
  r.flops = 1e12;  // still running on GPU 1 when it fails
  f.runtime.submit(std::move(r));
  f.runtime.submit(f.touch(a, Access::kRW, 2));
  f.plat.engine().schedule_silent_at(
      0.01, [&f] { f.runtime.on_device_failure(1); });
  f.runtime.run();
  EXPECT_EQ(f.runtime.tasks_completed(), 2u);
  EXPECT_EQ(f.runtime.task_remaps(), 1u);
  EXPECT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();
}

}  // namespace

// The sparse VectorClock against a dense reference: seeded random clocks
// over small and disjoint lane sets, empty clocks included.
namespace {

using Dense = std::vector<std::uint64_t>;

std::uint64_t dense_at(const Dense& d, std::size_t lane) {
  return lane < d.size() ? d[lane] : 0;
}

std::string dense_string(const Dense& d) {
  std::size_t n = d.size();
  while (n > 0 && d[n - 1] == 0) --n;
  std::string s = "[";
  for (std::size_t i = 0; i < n; ++i)
    s += (i ? "," : "") + std::to_string(d[i]);
  return s + "]";
}

struct Pair {
  check::VectorClock sparse;
  Dense dense;
  void tick(std::size_t lane) {
    sparse.tick(lane);
    if (lane >= dense.size()) dense.resize(lane + 1, 0);
    ++dense[lane];
  }
  void join(const Pair& o) {
    sparse.join(o.sparse);
    if (o.dense.size() > dense.size()) dense.resize(o.dense.size(), 0);
    for (std::size_t i = 0; i < o.dense.size(); ++i)
      dense[i] = std::max(dense[i], o.dense[i]);
  }
};

bool dense_leq(const Dense& a, const Dense& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] > dense_at(b, i)) return false;
  return true;
}

void expect_same(const Pair& p, std::size_t lanes) {
  for (std::size_t l = 0; l < lanes + 2; ++l)
    ASSERT_EQ(p.sparse.at(l), dense_at(p.dense, l)) << "lane " << l;
  ASSERT_EQ(p.sparse.to_string(), dense_string(p.dense));
}

TEST(VectorClock, EmptyClock) {
  check::VectorClock e, f;
  EXPECT_EQ(e.to_string(), "[]");
  EXPECT_EQ(e.at(0), 0u);
  EXPECT_EQ(e.at(1000), 0u);
  EXPECT_TRUE(e.leq(f));
  e.join(f);
  EXPECT_EQ(e.to_string(), "[]");
  f.tick(3);
  EXPECT_EQ(f.to_string(), "[0,0,0,1]");
  EXPECT_TRUE(e.leq(f));
  EXPECT_FALSE(f.leq(e));
  e.join(f);
  EXPECT_EQ(e.to_string(), "[0,0,0,1]");
}

TEST(VectorClock, MatchesDenseReferenceOnRandomClocks) {
  std::mt19937_64 rng(20211115);
  for (int round = 0; round < 200; ++round) {
    // Wide rounds spread ticks over many lanes; narrow ones pile them on a
    // few; odd rounds give the two clocks disjoint lane sets (even vs odd).
    const std::size_t lanes = round % 3 == 0 ? 64 : 6;
    const bool disjoint = round % 2 == 1;
    Pair a, b;
    auto lane_for = [&](int side) {
      std::size_t l = rng() % lanes;
      if (disjoint) l = 2 * (l / 2) + static_cast<std::size_t>(side);
      return l;
    };
    for (int step = 0; step < 40; ++step) {
      switch (rng() % 6) {
        case 0: case 1: a.tick(lane_for(0)); break;
        case 2: case 3: b.tick(lane_for(1)); break;
        case 4: if (!disjoint) a.join(b); break;
        case 5: if (!disjoint) b.join(a); break;
      }
      ASSERT_EQ(a.sparse.leq(b.sparse), dense_leq(a.dense, b.dense));
      ASSERT_EQ(b.sparse.leq(a.sparse), dense_leq(b.dense, a.dense));
    }
    expect_same(a, lanes);
    expect_same(b, lanes);
    Pair j = a;
    j.join(b);
    expect_same(j, lanes);
    EXPECT_TRUE(a.sparse.leq(j.sparse));
    EXPECT_TRUE(b.sparse.leq(j.sparse));
  }
}

}  // namespace
}  // namespace xkb::rt
