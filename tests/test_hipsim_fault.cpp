// Fault-injector tests: XBFS_FAULTS spec parsing, deterministic seeded
// decisions, and each hook — kernel launches that throw, memcpy transfers
// that raise the corruption flag, pool workers that stall or die without
// losing work, latency spikes on the modelled clock — plus the guarantee
// the whole resilience story rests on: any single corrupted levels entry is
// caught by the Graph500 validator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/device.h"
#include "hipsim/fault.h"
#include "hipsim/thread_pool.h"

namespace xbfs::sim {
namespace {

/// Every test leaves the process-wide injector off, no matter what the
/// ambient XBFS_FAULTS environment (the chaos CI job sets it) asked for.
class HipsimFault : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().disable(); }
  void TearDown() override { FaultInjector::global().disable(); }
};

TEST_F(HipsimFault, EnvSpecParsesEveryKey) {
  const FaultConfig c = FaultConfig::from_env_string(
      "kernel=0.25,memcpy=0.5,stall=0.125,death=0.0625,spike=0.2,"
      "stall_ms=3.5,spike_us=400,seed=99");
  EXPECT_DOUBLE_EQ(c.kernel_fault_rate, 0.25);
  EXPECT_DOUBLE_EQ(c.memcpy_corruption_rate, 0.5);
  EXPECT_DOUBLE_EQ(c.worker_stall_rate, 0.125);
  EXPECT_DOUBLE_EQ(c.worker_death_rate, 0.0625);
  EXPECT_DOUBLE_EQ(c.latency_spike_rate, 0.2);
  EXPECT_DOUBLE_EQ(c.stall_ms, 3.5);
  EXPECT_DOUBLE_EQ(c.latency_spike_us, 400.0);
  EXPECT_EQ(c.seed, 99u);
  EXPECT_TRUE(c.any());
}

TEST_F(HipsimFault, EnvSpecIgnoresUnknownKeysAndKeepsDefaults) {
  const FaultConfig c =
      FaultConfig::from_env_string("bogus=1,kernel=0.5,also_bogus=2");
  EXPECT_DOUBLE_EQ(c.kernel_fault_rate, 0.5);
  EXPECT_DOUBLE_EQ(c.memcpy_corruption_rate, 0.0);
  EXPECT_DOUBLE_EQ(c.stall_ms, 1.0);

  const FaultConfig empty = FaultConfig::from_env_string("");
  EXPECT_FALSE(empty.any());
}

TEST_F(HipsimFault, DecisionsAreDeterministicInSeedAndSequence) {
  FaultConfig cfg;
  cfg.kernel_fault_rate = 0.3;
  cfg.memcpy_corruption_rate = 0.3;
  cfg.seed = 1234;

  FaultInjector a, b;
  a.configure(cfg);
  b.configure(cfg);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.should_inject(FaultKind::KernelFault),
              b.should_inject(FaultKind::KernelFault));
    EXPECT_EQ(a.should_inject(FaultKind::MemcpyCorruption),
              b.should_inject(FaultKind::MemcpyCorruption));
  }
  EXPECT_EQ(a.injected(FaultKind::KernelFault),
            b.injected(FaultKind::KernelFault));

  // A different seed produces a different decision stream (with 200 draws
  // at 30%, identical streams are astronomically unlikely).
  cfg.seed = 4321;
  FaultInjector c;
  c.configure(cfg);
  bool any_diff = false;
  FaultInjector a2;
  cfg.seed = 1234;
  a2.configure(cfg);
  for (int i = 0; i < 200; ++i) {
    any_diff |= (a2.should_inject(FaultKind::KernelFault) !=
                 c.should_inject(FaultKind::KernelFault));
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(HipsimFault, ReconfiguringRestartsEveryDecisionStream) {
  FaultConfig cfg;
  cfg.kernel_fault_rate = 0.3;
  cfg.memcpy_corruption_rate = 0.3;
  cfg.seed = 1234;
  const auto draw = [](FaultInjector& inj) {
    std::vector<int> seen;
    for (int i = 0; i < 64; ++i) {
      seen.push_back(inj.should_inject(FaultKind::KernelFault));
      seen.push_back(inj.should_inject(FaultKind::MemcpyCorruption));
    }
    std::vector<std::int32_t> levels(97, 1);
    for (int i = 0; i < 8; ++i) inj.corrupt_levels(levels);
    for (const std::int32_t l : levels) seen.push_back(l);
    return seen;
  };

  FaultInjector fresh;
  fresh.configure(cfg);
  const std::vector<int> want = draw(fresh);

  // Draws made under an earlier configuration must not shift the streams
  // of the next one: the same seed replays the fresh-process sequence.
  FaultInjector reused;
  reused.configure(cfg);
  (void)draw(reused);
  cfg.seed = 99;
  reused.configure(cfg);
  (void)draw(reused);
  cfg.seed = 1234;
  reused.configure(cfg);
  EXPECT_EQ(draw(reused), want);
  EXPECT_EQ(reused.decisions(FaultKind::KernelFault), 64u);
}

TEST_F(HipsimFault, RateZeroNeverFiresAndRateOneAlwaysFires) {
  FaultConfig cfg;
  cfg.kernel_fault_rate = 1.0;
  cfg.memcpy_corruption_rate = 0.0;
  // worker_stall_rate left 0 so any() is driven by the kernel rate alone.
  FaultInjector inj;
  inj.configure(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(inj.should_inject(FaultKind::KernelFault));
    EXPECT_FALSE(inj.should_inject(FaultKind::MemcpyCorruption));
  }
  EXPECT_EQ(inj.injected(FaultKind::KernelFault), 100u);
  EXPECT_EQ(inj.decisions(FaultKind::MemcpyCorruption), 100u);
  EXPECT_EQ(inj.injected(FaultKind::MemcpyCorruption), 0u);
  EXPECT_EQ(inj.total_injected(), 100u);
}

TEST_F(HipsimFault, KernelLaunchThrowsFaultInjected) {
  Device dev(DeviceProfile::mi250x_gcd(),
             SimOptions{.num_workers = 1, .profiling = false});
  dev.warmup();

  FaultConfig cfg;
  cfg.kernel_fault_rate = 1.0;
  FaultInjector::global().configure(cfg);

  LaunchConfig lc;
  lc.grid_blocks = 1;
  lc.block_threads = 64;
  try {
    dev.launch("victim", lc, [](BlockCtx&) {});
    FAIL() << "injected kernel fault did not throw";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.kind(), FaultKind::KernelFault);
    EXPECT_NE(std::string(e.what()).find("victim"), std::string::npos);
  }

  // Disabled again: the same launch succeeds.
  FaultInjector::global().disable();
  EXPECT_NO_THROW(dev.launch("victim", lc, [](BlockCtx&) {}));
}

TEST_F(HipsimFault, MemcpyCorruptionRaisesTheDeviceFlagOnce) {
  Device dev(DeviceProfile::mi250x_gcd(),
             SimOptions{.num_workers = 1, .profiling = false});
  dev.memcpy_h2d(4096);
  EXPECT_FALSE(dev.take_pending_corruption());  // clean without injection

  FaultConfig cfg;
  cfg.memcpy_corruption_rate = 1.0;
  FaultInjector::global().configure(cfg);
  dev.memcpy_d2h(4096);
  FaultInjector::global().disable();

  EXPECT_EQ(dev.corrupted_copies(), 1u);
  EXPECT_TRUE(dev.take_pending_corruption());
  EXPECT_FALSE(dev.take_pending_corruption());  // take() clears the flag
}

TEST_F(HipsimFault, LatencySpikeInflatesTheModelledClockOnly) {
  Device dev(DeviceProfile::mi250x_gcd(),
             SimOptions{.num_workers = 1, .profiling = false});
  dev.warmup();
  LaunchConfig lc;
  lc.grid_blocks = 1;
  lc.block_threads = 64;
  const double clean_us = dev.launch("k", lc, [](BlockCtx&) {}).time_us;

  FaultConfig cfg;
  cfg.latency_spike_rate = 1.0;
  cfg.latency_spike_us = 500.0;
  FaultInjector::global().configure(cfg);
  const double spiked_us = dev.launch("k", lc, [](BlockCtx&) {}).time_us;
  FaultInjector::global().disable();

  EXPECT_NEAR(spiked_us - clean_us, 500.0, 1.0);
}

TEST_F(HipsimFault, StalledAndDeadWorkersNeverLoseWork) {
  for (const bool death : {false, true}) {
    FaultConfig cfg;
    if (death) {
      cfg.worker_death_rate = 1.0;  // every non-caller worker skips the job
    } else {
      cfg.worker_stall_rate = 1.0;
      cfg.stall_ms = 0.1;
    }
    FaultInjector::global().configure(cfg);

    ThreadPool pool(4);
    constexpr std::uint64_t kItems = 1000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallel_for(kItems, [&](unsigned, std::uint64_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    FaultInjector::global().disable();

    std::uint64_t total = 0;
    for (const auto& h : hits) total += h.load();
    EXPECT_EQ(total, kItems) << (death ? "death" : "stall");
  }
}

TEST_F(HipsimFault, BackToBackJobsSurviveStragglersWithoutCrossTalk) {
  // Regression: a stalled worker used to sleep *before* registering in
  // the pool's in_flight count, so parallel_for could return — letting
  // the caller destroy its fn and the next call reset the job — while
  // the sleeper woke into stale state (dangling fn, torn count/cursor,
  // double-processed indices).  Tiny jobs dispatched back-to-back under
  // a high stall/death rate make that window fire reliably.
  FaultConfig cfg;
  cfg.worker_stall_rate = 0.5;
  cfg.stall_ms = 0.2;
  cfg.worker_death_rate = 0.1;
  cfg.seed = 11;
  FaultInjector::global().configure(cfg);

  ThreadPool pool(4);
  for (int job = 0; job < 200; ++job) {
    const std::uint64_t items = 1 + static_cast<std::uint64_t>(job % 7);
    std::vector<std::atomic<int>> hits(items);
    pool.parallel_for(items, [&](unsigned, std::uint64_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t i = 0; i < items; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "job " << job << " item " << i;
    }
  }
  FaultInjector::global().disable();
}

TEST_F(HipsimFault, CorruptLevelsAlwaysProducesADetectableCorruption) {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 8;
  p.seed = 5;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant[0];
  const std::vector<std::int32_t> truth = graph::reference_bfs(g, src);
  ASSERT_TRUE(graph::validate_levels_graph500(g, src, truth).empty());

  FaultConfig cfg;
  cfg.memcpy_corruption_rate = 1.0;
  cfg.seed = 77;
  FaultInjector inj;
  inj.configure(cfg);
  // Different internal draws pick different victim entries; every single
  // one must break the (unique) exact-distance labeling.
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<std::int32_t> poisoned = truth;
    inj.corrupt_levels(poisoned);
    EXPECT_NE(poisoned, truth) << "trial " << trial;
    EXPECT_FALSE(graph::validate_levels_graph500(g, src, poisoned).empty())
        << "undetected corruption in trial " << trial;
  }
}

}  // namespace
}  // namespace xbfs::sim
