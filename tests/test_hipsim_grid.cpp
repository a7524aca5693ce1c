// Cooperative (grid-resident) launches, hipsim/grid.h: pricing (one launch
// overhead, per-phase bottleneck x imbalance, barrier = one atomic per
// resident block plus an L2 round trip, none behind a uniform phase),
// phases as SimSan ordering points, uniform values and the phase behind
// them as one SimSan session, SchedCheck on a missing barrier,
// attribution, fault injection at the launch, and the host operations a
// running cooperative launch refuses; then the multi-device form: one
// launch fee per device, exchanges that align the grids and keep their
// barrier, cross-device uniform values, faults at the end of the launch,
// and exchanges as SimSan ordering points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hipsim/device.h"
#include "hipsim/fault.h"
#include "hipsim/grid.h"
#include "hipsim/sanitizer.h"
#include "hipsim/schedcheck.h"

namespace xbfs::sim {
namespace {

/// Every test leaves the fault injector and the sanitizer off, whatever
/// the ambient XBFS_FAULTS / XBFS_SANITIZE asked for.
class GridLaunch : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::global().disable();
    Sanitizer::global().reset();
    Sanitizer::global().disable();
  }
  void TearDown() override {
    FaultInjector::global().disable();
    Sanitizer::global().reset();
    Sanitizer::global().disable();
  }
};

Device make_device() {
  return Device(DeviceProfile::mi250x_gcd(), SimOptions{.num_workers = 1});
}

constexpr unsigned kThreads = 64;
constexpr unsigned kResident = 16;

LaunchConfig resident_grid() {
  return LaunchConfig{.grid_blocks = kResident, .block_threads = kThreads};
}

/// A kernel with uneven blocks: block b streams (b + 1) * 4096 words, so
/// the phase has a real imbalance factor to carry over.
Device::KernelBody uneven_body(dspan<std::uint32_t> buf) {
  return [=](BlockCtx& blk) {
    auto& ctx = blk.ctx();
    const std::uint64_t words = (std::uint64_t{blk.block_id()} + 1) * 4096;
    const std::uint64_t base = std::uint64_t{blk.block_id()} * 65536;
    blk.threads([&](unsigned t) {
      for (std::uint64_t i = t; i < words; i += kThreads) {
        ctx.store(buf, base + i, static_cast<std::uint32_t>(i));
      }
    });
  };
}

TEST_F(GridLaunch, PricingIsOneLaunchPhasesAndBarriers) {
  const DeviceProfile p = DeviceProfile::mi250x_gcd();
  const LaunchConfig phase_a{.grid_blocks = 8, .block_threads = kThreads};
  const LaunchConfig phase_b{.grid_blocks = 12, .block_threads = kThreads};

  // The same two kernels as stand-alone launches on a twin device.
  Device ref = make_device();
  ref.warmup();
  auto ref_buf = ref.alloc<std::uint32_t>(kResident * 65536);
  const LaunchResult ra = ref.launch("a", phase_a, uneven_body(ref_buf.span()));
  const LaunchResult rb = ref.launch("b", phase_b, uneven_body(ref_buf.span()));
  EXPECT_GT(ra.timing.imbalance, 1.0);

  Device dev = make_device();
  dev.warmup();
  auto buf = dev.alloc<std::uint32_t>(kResident * 65536);
  LaunchResult pa, pb;
  const LaunchResult r = dev.launch_grid(
      dev.stream(0), "coop", resident_grid(), [&](GridCtx& grid) {
        pa = grid.phase("a", phase_a, uneven_body(buf.span()));
        EXPECT_EQ(grid.barriers(), 0u);
        pb = grid.phase("b", phase_b, uneven_body(buf.span()));
        EXPECT_EQ(grid.phases(), 2u);
        EXPECT_EQ(grid.barriers(), 1u);
      });

  // Each phase is its stand-alone launch minus the launch overhead: same
  // counters, same bottleneck x imbalance.
  EXPECT_EQ(pa.counters.fetch_bytes, ra.counters.fetch_bytes);
  EXPECT_EQ(pb.counters.lane_slots, rb.counters.lane_slots);
  EXPECT_DOUBLE_EQ(pa.timing.imbalance, ra.timing.imbalance);
  EXPECT_NEAR(pa.time_us, ra.time_us - p.kernel_launch_us, 1e-9);
  EXPECT_NEAR(pb.time_us, rb.time_us - p.kernel_launch_us, 1e-9);

  // Barrier: one global atomic per resident block plus one L2 round trip.
  const double barrier = kResident / p.atomics_per_us +
                         p.l2_hit_latency_cycles / (p.clock_ghz * 1000.0);
  EXPECT_DOUBLE_EQ(grid_barrier_us(p, kResident), barrier);
  EXPECT_NEAR(r.time_us, p.kernel_launch_us + pa.time_us + barrier + pb.time_us,
              1e-9);
  EXPECT_NEAR(dev.now_us(), r.time_us, 1e-9);

  // Rows: one per phase under the kernel's name; the first carries the
  // launch, and only it counts as one.
  const auto& rows = dev.profiler().records();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].launched);
  EXPECT_FALSE(rows[1].launched);
  EXPECT_NEAR(rows[0].timing.total_us, p.kernel_launch_us + pa.time_us, 1e-9);
  EXPECT_DOUBLE_EQ(rows[1].timing.total_us, pb.time_us);
  std::uint64_t launches = 0;
  for (const auto& t : dev.profiler().aggregate_by_kernel()) {
    launches += t.launches;
  }
  EXPECT_EQ(launches, 1u);
}

TEST_F(GridLaunch, UniformOwesNoBarrierToTheNextPhase) {
  const DeviceProfile p = DeviceProfile::mi250x_gcd();
  const double barrier = grid_barrier_us(p, kResident);
  const LaunchConfig one{.grid_blocks = 1, .block_threads = kThreads};
  Device dev = make_device();
  auto buf = dev.alloc<std::uint32_t>(kResident * 65536);
  const auto decide = [](BlockCtx&) { return 1; };
  dev.launch_grid(dev.stream(0), "coop", resident_grid(), [&](GridCtx& grid) {
    grid.phase("a", one, uneven_body(buf.span()));
    double t = grid.now_us();
    grid.uniform("decide", decide);
    EXPECT_EQ(grid.barriers(), 1u) << "phase -> uniform pays one";
    EXPECT_GE(grid.now_us(), t + barrier);

    t = grid.now_us();
    const LaunchResult b = grid.phase("b", one, uneven_body(buf.span()));
    EXPECT_EQ(grid.barriers(), 1u) << "uniform -> phase pays none";
    EXPECT_NEAR(grid.now_us(), t + b.time_us, 1e-9);

    grid.uniform("again", decide);
    t = grid.now_us();
    grid.uniform("twice", decide);
    EXPECT_EQ(grid.barriers(), 3u) << "uniform -> uniform pays one";
    EXPECT_GE(grid.now_us(), t + barrier);
    grid.phase("c", one, uneven_body(buf.span()));
    EXPECT_EQ(grid.phases(), 6u);
    EXPECT_EQ(grid.barriers(), 3u);
  });
}

TEST_F(GridLaunch, PhaseMustFitTheResidentGrid) {
  Device dev = make_device();
  const auto noop = [](BlockCtx&) {};
  EXPECT_THROW(dev.launch_grid(dev.stream(0), "coop", resident_grid(),
                               [&](GridCtx& grid) {
                                 grid.phase("wide",
                                            {.grid_blocks = kResident + 1,
                                             .block_threads = kThreads},
                                            noop);
                               }),
               std::invalid_argument);
  EXPECT_THROW(dev.launch_grid(dev.stream(0), "coop", resident_grid(),
                               [&](GridCtx& grid) {
                                 grid.phase("fat",
                                            {.grid_blocks = 1,
                                             .block_threads = 2 * kThreads},
                                            noop);
                               }),
               std::invalid_argument);
}

TEST_F(GridLaunch, UniformReturnsTheCommonValueAndRejectsDivergence) {
  Device dev = make_device();
  auto flag = dev.alloc<std::uint32_t>(1);
  auto fs = flag.span();
  unsigned agreed = 0;
  dev.launch_grid(dev.stream(0), "coop", resident_grid(), [&](GridCtx& grid) {
    grid.phase("set", {.grid_blocks = 1, .block_threads = kThreads},
               [=](BlockCtx& blk) { blk.ctx().store(fs, 0, 7u); });
    agreed = grid.uniform("read", [&](BlockCtx& blk) {
      return blk.ctx().load(fs, 0);
    });
  });
  EXPECT_EQ(agreed, 7u);

  EXPECT_THROW(
      dev.launch_grid(dev.stream(0), "coop", resident_grid(),
                      [&](GridCtx& grid) {
                        grid.uniform("diverge", [](BlockCtx& blk) {
                          return blk.block_id();
                        });
                      }),
      std::logic_error);
  // The failed program left nothing running: host work is legal again.
  EXPECT_NO_THROW(dev.synchronize());
}

TEST_F(GridLaunch, RunningLaunchRefusesHostRoundTrips) {
  Device dev = make_device();
  auto buf = dev.alloc<std::uint32_t>(4);
  const auto try_in_program = [&](auto&& host_op) {
    EXPECT_THROW(dev.launch_grid(dev.stream(0), "coop", resident_grid(),
                                 [&](GridCtx&) { host_op(); }),
                 std::logic_error);
  };
  try_in_program([&] { dev.memcpy_d2h(dev.stream(0), buf); });
  try_in_program([&] { dev.memcpy_h2d(dev.stream(0), buf); });
  try_in_program([&] { dev.stream(0).synchronize(); });
  try_in_program([&] {
    dev.launch("plain", {.grid_blocks = 1, .block_threads = kThreads},
               [](BlockCtx&) {});
  });
}

// Phases are SimSan ordering points: a write in one phase and a read of
// the same word by another block in the next are ordered by the barrier;
// the same pair inside one phase is a race.
TEST_F(GridLaunch, PhaseBoundaryOrdersBlocksForSimSan) {
  Sanitizer& san = Sanitizer::global();
  san.configure(SanitizeConfig::all_on());
  {
    Device dev = make_device();
    auto word = dev.alloc<std::uint32_t>(1, "grid.word");
    auto out = dev.alloc<std::uint32_t>(kResident, "grid.out");
    auto ws = word.span();
    auto os = out.span();
    const auto write0 = [=](BlockCtx& blk) {
      if (blk.block_id() == 0) blk.ctx().store(ws, 0, 5u);
    };
    const auto read_other = [=](BlockCtx& blk) {
      if (blk.block_id() == 1) {
        blk.ctx().store(os, 1, blk.ctx().load(ws, 0));
      }
    };
    const LaunchConfig two{.grid_blocks = 2, .block_threads = kThreads};

    dev.launch_grid(dev.stream(0), "ordered", resident_grid(),
                    [&](GridCtx& grid) {
                      grid.phase("produce", two, write0);
                      grid.phase("consume", two, read_other);
                    });
    EXPECT_EQ(san.finding_count(DefectKind::DataRace), 0u);

    dev.launch_grid(dev.stream(0), "unordered", resident_grid(),
                    [&](GridCtx& grid) {
                      grid.phase("fused", two, [=](BlockCtx& blk) {
                        write0(blk);
                        read_other(blk);
                      });
                    });
    EXPECT_GT(san.finding_count(DefectKind::DataRace), 0u);
  }
  san.reset();
  san.disable();
}

/// Block 0 publishes a word, every block reads it for a uniform value, and
/// block 0 then zeroes it, right behind the uniform or behind a barrier.
void decide_then_zero(GridCtx& grid, dspan<std::uint32_t> word, bool barrier) {
  const LaunchConfig one{.grid_blocks = 1, .block_threads = kThreads};
  grid.phase("publish", one,
             [=](BlockCtx& blk) { blk.ctx().store(word, 0, 7u); });
  EXPECT_EQ(grid.uniform("decide", [=](BlockCtx& blk) {
              return blk.ctx().load(word, 0);
            }),
            7u);
  if (barrier) grid.phase("other", one, [](BlockCtx&) {});
  grid.phase("zero", one,
             [=](BlockCtx& blk) { blk.ctx().store(word, 0, 0u); });
}

// A uniform phase and the phase behind it share one SimSan session: with
// no barrier between, block 0's write after the decision races the other
// blocks' reads for it.  Behind a barrier the same write is clean.
TEST_F(GridLaunch, UniformAndTheNextPhaseAreOneSimSanSession) {
  Sanitizer& san = Sanitizer::global();
  san.configure(SanitizeConfig::all_on());
  {
    Device dev = make_device();
    auto word = dev.alloc<std::uint32_t>(1, "grid.decided");
    dev.launch_grid(dev.stream(0), "fused", resident_grid(),
                    [&](GridCtx& grid) {
                      decide_then_zero(grid, word.span(), false);
                    });
    EXPECT_GT(san.finding_count(DefectKind::DataRace), 0u);
    EXPECT_EQ(san.unannotated_count(),
              san.finding_count(DefectKind::DataRace));
    bool named = false;
    for (const Finding& f : san.findings()) {
      named |= f.kernel == "decide+zero" && f.buffer == "grid.decided";
    }
    EXPECT_TRUE(named) << "the finding names the fused pair";

    san.reset();
    dev.launch_grid(dev.stream(0), "ordered", resident_grid(),
                    [&](GridCtx& grid) {
                      decide_then_zero(grid, word.span(), true);
                    });
    EXPECT_EQ(san.unannotated_count(), 0u);
  }
  san.reset();
  san.disable();
}

/// A two-block handoff: block 0 publishes a value, block 1 copies it out.
/// With the barrier the copy always sees the value; fused into one phase
/// (the missing-barrier bug) some schedule reads it first.
std::uint64_t handoff(bool barrier) {
  Device dev = make_device();
  auto word = dev.alloc<std::uint32_t>(1, "chk.word");
  auto out = dev.alloc<std::uint32_t>(1, "chk.out");
  word.h_fill(0);
  out.h_fill(0);
  dev.memcpy_h2d(dev.stream(0), word, out);
  auto ws = word.span();
  auto os = out.span();
  const auto publish = [=](BlockCtx& blk) {
    if (blk.block_id() == 0) blk.ctx().store(ws, 0, 42u);
  };
  const auto copy = [=](BlockCtx& blk) {
    if (blk.block_id() == 1) blk.ctx().store(os, 0, blk.ctx().load(ws, 0));
  };
  const LaunchConfig two{.grid_blocks = 2, .block_threads = 1};
  dev.launch_grid(dev.stream(0), "handoff",
                  {.grid_blocks = 2, .block_threads = 1}, [&](GridCtx& grid) {
                    if (barrier) {
                      grid.phase("publish", two, publish);
                      grid.phase("copy", two, copy);
                    } else {
                      grid.phase("publish_copy", two, [=](BlockCtx& blk) {
                        copy(blk);
                        publish(blk);
                      });
                    }
                  });
  dev.memcpy_d2h(dev.stream(0), out);
  return 0x1000ull + out.h_read(0);
}

TEST_F(GridLaunch, SchedCheckFindsMissingBarrierAndPrintsReplaySeed) {
  Sanitizer::global().configure(SanitizeConfig::all_on());
  SchedCheckConfig cfg;
  cfg.schedules = 12;
  cfg.preemptions = 3;
  cfg.seed = 0xB4551E5ull;
  SchedCheck chk;

  const ExploreResult bad = chk.explore_with(
      cfg, "missing-barrier", [](Schedule&) { return handoff(false); });
  ASSERT_FALSE(bad.ok()) << "a fused publish/copy must be caught";
  std::ostringstream os;
  bad.summary(os);
  EXPECT_NE(os.str().find("replay="), std::string::npos) << os.str();

  Sanitizer::global().reset();
  const ExploreResult good = chk.explore_with(
      cfg, "with-barrier", [](Schedule&) { return handoff(true); });
  EXPECT_TRUE(good.ok()) << "the barrier orders the copy on every schedule";
  EXPECT_EQ(good.baseline_hash, 0x1000ull + 42u);
}

TEST_F(GridLaunch, AttributionBillsOneLaunchAndTheWholeTime) {
  Device dev = make_device();
  auto buf = dev.alloc<std::uint32_t>(kResident * 65536);
  AttributionSink sink;
  LaunchResult r;
  {
    ScopedAttribution attr(dev, sink);
    r = dev.launch_grid(dev.stream(0), "coop", resident_grid(),
                        [&](GridCtx& grid) {
                          grid.phase("a", resident_grid(),
                                     uneven_body(buf.span()));
                          grid.uniform("agree", [](BlockCtx&) { return 1; });
                          grid.phase("b", resident_grid(),
                                     uneven_body(buf.span()));
                        });
  }
  EXPECT_EQ(sink.launches, 1u);
  EXPECT_EQ(sink.memcpys, 0u);
  EXPECT_DOUBLE_EQ(sink.modelled_us, r.time_us);
  EXPECT_EQ(sink.counters.fetch_bytes, r.counters.fetch_bytes);
  EXPECT_EQ(sink.counters.mem_writes, r.counters.mem_writes);
  // One row per phase; the uniform phase records none.
  EXPECT_EQ(dev.profiler().records().size(), 2u);
}

TEST_F(GridLaunch, KernelFaultFiresAtTheLaunch) {
  FaultConfig fc;
  fc.kernel_fault_rate = 1.0;
  FaultInjector::global().configure(fc);
  Device dev = make_device();
  AttributionSink sink;
  unsigned phases_run = 0;
  {
    ScopedAttribution attr(dev, sink);
    EXPECT_THROW(dev.launch_grid(dev.stream(0), "coop", resident_grid(),
                                 [&](GridCtx& grid) {
                                   for (int i = 0; i < 5; ++i) {
                                     grid.phase("p", resident_grid(),
                                                [](BlockCtx&) {});
                                     ++phases_run;
                                   }
                                 }),
                 FaultInjected);
  }
  // One draw for the launch, however many phases it runs; the fault is
  // reported when the resident kernel ends, and the attempt is billed.
  EXPECT_EQ(FaultInjector::global().total_injected(), 1u);
  EXPECT_EQ(phases_run, 5u);
  EXPECT_EQ(sink.launches, 1u);
  EXPECT_GT(sink.modelled_us, 0.0);
}

// --- multi-device cooperative launches ----------------------------------------

using MultiGridLaunch = GridLaunch;

/// Two devices with identical resident grids; device 0's phase is the
/// heavier one.
struct Pair {
  Device a = make_device();
  Device b = make_device();
  DeviceBuffer<std::uint32_t> buf_a = a.alloc<std::uint32_t>(kResident * 65536);
  DeviceBuffer<std::uint32_t> buf_b = b.alloc<std::uint32_t>(kResident * 65536);

  std::vector<GridMember> members() {
    return {{&a, &a.stream(0), resident_grid()},
            {&b, &b.stream(0), resident_grid()}};
  }
};

TEST_F(MultiGridLaunch, EachDevicePaysOneLaunchFee) {
  const DeviceProfile p = DeviceProfile::mi250x_gcd();
  Pair d;
  d.a.warmup();
  d.b.warmup();
  AttributionSink sink_a, sink_b;
  std::vector<LaunchResult> r;
  LaunchResult pa;
  {
    ScopedAttribution at_a(d.a, sink_a);
    ScopedAttribution at_b(d.b, sink_b);
    r = Device::launch_grid(d.members(), "multi", [&](MultiGridCtx& mg) {
      ASSERT_EQ(mg.size(), 2u);
      pa = mg.grid(0).phase("a", resident_grid(), uneven_body(d.buf_a.span()));
      for (int i = 0; i < 3; ++i) {
        mg.grid(1).phase("b", {.grid_blocks = 1, .block_threads = kThreads},
                         [](BlockCtx&) {});
      }
    });
  }
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NEAR(r[0].time_us, p.kernel_launch_us + pa.time_us, 1e-9);
  EXPECT_EQ(sink_a.launches, 1u);
  EXPECT_EQ(sink_b.launches, 1u);
  EXPECT_DOUBLE_EQ(sink_a.modelled_us, r[0].time_us);
  EXPECT_DOUBLE_EQ(sink_b.modelled_us, r[1].time_us);
  for (Device* dev : {&d.a, &d.b}) {
    std::uint64_t launches = 0;
    for (const auto& t : dev->profiler().aggregate_by_kernel()) {
      launches += t.launches;
    }
    EXPECT_EQ(launches, 1u);
  }
  EXPECT_THROW(Device::launch_grid({{&d.a, &d.a.stream(0), resident_grid()},
                                    {&d.a, &d.a.stream(0), resident_grid()}},
                                   "twice", [](MultiGridCtx&) {}),
               std::invalid_argument);
}

TEST_F(MultiGridLaunch, ExchangeAlignsToTheSlowestGridPlusFabricAndABarrier) {
  const DeviceProfile p = DeviceProfile::mi250x_gcd();
  const double barrier = grid_barrier_us(p, kResident);
  constexpr double kFabricUs = 5.0;
  Pair d;
  // Device b starts later on the modelled clock: the launch waits for it.
  d.b.host_work(30.0);
  const double start = std::max(d.a.now_us(), d.b.now_us());
  bool ran = false;
  const std::vector<LaunchResult> r =
      Device::launch_grid(d.members(), "multi", [&](MultiGridCtx& mg) {
        mg.grid(0).phase("heavy", resident_grid(), uneven_body(d.buf_a.span()));
        mg.grid(1).phase("light", {.grid_blocks = 1, .block_threads = kThreads},
                         [](BlockCtx&) {});
        const double slowest = std::max(mg.grid(0).now_us() + barrier,
                                        mg.grid(1).now_us() + barrier);
        EXPECT_GT(mg.grid(0).now_us(), mg.grid(1).now_us());
        EXPECT_DOUBLE_EQ(mg.exchange("swap", [&] {
          ran = true;
          return kFabricUs;
        }), kFabricUs);
        for (std::size_t i = 0; i < mg.size(); ++i) {
          EXPECT_DOUBLE_EQ(mg.grid(i).now_us(), slowest + kFabricUs);
          EXPECT_EQ(mg.grid(i).barriers(), 1u);
        }
        EXPECT_DOUBLE_EQ(mg.now_us(), slowest + kFabricUs);
        // The exchange's multi-grid sync already orders every grid: the
        // phase right behind it (a uniform one too) pays no second barrier.
        for (std::size_t i = 0; i < mg.size(); ++i) {
          const LaunchResult after = mg.grid(i).phase(
              "after", {.grid_blocks = 1, .block_threads = kThreads},
              [](BlockCtx&) {});
          EXPECT_DOUBLE_EQ(mg.grid(i).now_us(),
                           slowest + kFabricUs + after.time_us);
          EXPECT_EQ(mg.grid(i).barriers(), 1u) << "device " << i;
        }
        mg.exchange("swap", [&] { return kFabricUs; });
        mg.uniform("decide", [](std::size_t, BlockCtx&) { return 1; });
        for (std::size_t i = 0; i < mg.size(); ++i) {
          EXPECT_EQ(mg.grid(i).barriers(), 2u) << "device " << i;
        }
      });
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(r[0].time_us, r[1].time_us);
  EXPECT_NEAR(d.a.now_us(), start + r[0].time_us, 1e-9);
  EXPECT_NEAR(d.b.now_us(), start + r[1].time_us, 1e-9);
}

TEST_F(MultiGridLaunch, UniformOwesNoBarrierButAnExchangeKeepsItsOwn) {
  Pair d;
  Device::launch_grid(d.members(), "multi", [&](MultiGridCtx& mg) {
    mg.uniform("decide", [](std::size_t, BlockCtx&) { return 1; });
    for (std::size_t i = 0; i < mg.size(); ++i) {
      mg.grid(i).phase("p", resident_grid(), [](BlockCtx&) {});
      EXPECT_EQ(mg.grid(i).barriers(), 0u) << "device " << i;
    }
    mg.uniform("decide", [](std::size_t, BlockCtx&) { return 1; });
    mg.exchange("x", [] { return 1.0; });
    for (std::size_t i = 0; i < mg.size(); ++i) {
      EXPECT_EQ(mg.grid(i).barriers(), 2u) << "device " << i;
    }
  });
}

// The multi-device form of UniformAndTheNextPhaseAreOneSimSanSession: each
// device's uniform phase and its next phase are one session.
TEST_F(MultiGridLaunch, UniformAndTheNextPhaseAreOneSimSanSession) {
  Sanitizer& san = Sanitizer::global();
  san.configure(SanitizeConfig::all_on());
  {
    Device a = make_device();
    Device b = make_device();
    auto word_a = a.alloc<std::uint32_t>(1, "multi.decided_a");
    auto word_b = b.alloc<std::uint32_t>(1, "multi.decided_b");
    const std::vector<GridMember> members = {
        {&a, &a.stream(0), resident_grid()},
        {&b, &b.stream(0), resident_grid()}};
    const dspan<std::uint32_t> words[2] = {word_a.span(), word_b.span()};
    for (const bool barrier : {false, true}) {
      SCOPED_TRACE(barrier ? "behind a barrier" : "fused");
      san.reset();
      Device::launch_grid(members, "multi", [&](MultiGridCtx& mg) {
        const LaunchConfig one{.grid_blocks = 1, .block_threads = kThreads};
        for (std::size_t i = 0; i < mg.size(); ++i) {
          mg.grid(i).phase("publish", one, [w = words[i]](BlockCtx& blk) {
            blk.ctx().store(w, 0, 7u);
          });
        }
        EXPECT_EQ(mg.uniform("decide",
                             [&](std::size_t i, BlockCtx& blk) {
                               return blk.ctx().load(words[i], 0);
                             }),
                  7u);
        if (barrier) mg.exchange("x", [] { return 1.0; });
        for (std::size_t i = 0; i < mg.size(); ++i) {
          mg.grid(i).phase("zero", one, [w = words[i]](BlockCtx& blk) {
            blk.ctx().store(w, 0, 0u);
          });
        }
      });
      std::vector<std::string> racy;
      for (const Finding& f : san.findings()) {
        if (f.kind == DefectKind::DataRace) racy.push_back(f.buffer);
      }
      std::sort(racy.begin(), racy.end());
      if (barrier) {
        EXPECT_EQ(san.unannotated_count(), 0u);
      } else {
        EXPECT_EQ(racy, (std::vector<std::string>{"multi.decided_a",
                                                   "multi.decided_b"}));
      }
    }
  }
  san.reset();
  san.disable();
}

TEST_F(MultiGridLaunch, UniformMustAgreeAcrossDevices) {
  Pair d;
  auto fa = d.buf_a.span();
  auto fb = d.buf_b.span();
  unsigned agreed = 0;
  Device::launch_grid(d.members(), "multi", [&](MultiGridCtx& mg) {
    mg.grid(0).phase("set", {.grid_blocks = 1, .block_threads = kThreads},
                     [=](BlockCtx& blk) { blk.ctx().store(fa, 0, 7u); });
    mg.grid(1).phase("set", {.grid_blocks = 1, .block_threads = kThreads},
                     [=](BlockCtx& blk) { blk.ctx().store(fb, 0, 7u); });
    agreed = mg.uniform("read", [&](std::size_t i, BlockCtx& blk) {
      return blk.ctx().load(i == 0 ? fa : fb, 0);
    });
  });
  EXPECT_EQ(agreed, 7u);

  EXPECT_THROW(Device::launch_grid(d.members(), "multi",
                                   [&](MultiGridCtx& mg) {
                                     mg.uniform("diverge",
                                                [](std::size_t i, BlockCtx&) {
                                                  return i;
                                                });
                                   }),
               std::logic_error);
  // The failed program left nothing running on either device.
  EXPECT_NO_THROW(d.a.synchronize());
  EXPECT_NO_THROW(d.b.synchronize());
}

TEST_F(MultiGridLaunch, FaultSurfacesWhenTheLaunchEnds) {
  FaultConfig fc;
  fc.kernel_fault_rate = 1.0;
  FaultInjector::global().reset_counters();
  FaultInjector::global().configure(fc);
  Pair d;
  AttributionSink sink_a, sink_b;
  unsigned phases_run = 0;
  {
    ScopedAttribution at_a(d.a, sink_a);
    ScopedAttribution at_b(d.b, sink_b);
    try {
      Device::launch_grid(d.members(), "multi", [&](MultiGridCtx& mg) {
        for (int i = 0; i < 3; ++i) {
          for (std::size_t g = 0; g < mg.size(); ++g) {
            mg.grid(g).phase("p", resident_grid(), [](BlockCtx&) {});
            ++phases_run;
          }
          mg.exchange("x", [] { return 1.0; });
        }
      });
      FAIL() << "expected a MultiGridFault";
    } catch (const MultiGridFault& f) {
      EXPECT_EQ(f.member(), 0u);
      EXPECT_EQ(f.kind(), FaultKind::KernelFault);
    }
  }
  // One draw per device at the launch; every phase still ran, and both
  // devices billed the attempt.
  EXPECT_EQ(FaultInjector::global().total_injected(), 2u);
  EXPECT_EQ(phases_run, 6u);
  EXPECT_EQ(sink_a.launches, 1u);
  EXPECT_EQ(sink_b.launches, 1u);
  EXPECT_GT(sink_b.modelled_us, 0.0);
}

// An exchange orders every write before it against every access after it:
// block 0 of device a publishes a word, the exchange carries it to device
// b, and then other blocks read it on both devices, with no finding.
TEST_F(MultiGridLaunch, ExchangeOrdersAccessesForSimSan) {
  Sanitizer& san = Sanitizer::global();
  san.configure(SanitizeConfig::all_on());
  {
    Device a = make_device();
    Device b = make_device();
    auto word_a = a.alloc<std::uint32_t>(1, "multi.word_a");
    auto word_b = b.alloc<std::uint32_t>(1, "multi.word_b");
    auto out_a = a.alloc<std::uint32_t>(1, "multi.out_a");
    auto out_b = b.alloc<std::uint32_t>(1, "multi.out_b");
    const LaunchConfig two{.grid_blocks = 2, .block_threads = kThreads};
    Device::launch_grid(
        {{&a, &a.stream(0), two}, {&b, &b.stream(0), two}}, "multi",
        [&](MultiGridCtx& mg) {
          auto wa = word_a.span();
          mg.grid(0).phase("publish", two, [=](BlockCtx& blk) {
            if (blk.block_id() == 0) blk.ctx().store(wa, 0, 9u);
          });
          mg.exchange("carry", [&] {
            word_a.mark_host_synced();
            word_b.h_copy_from(std::as_const(word_a).host_data(), 1);
            word_b.mark_device_synced();
            return 2.0;
          });
          const auto read = [](dspan<const std::uint32_t> w,
                               dspan<std::uint32_t> o) {
            return [=](BlockCtx& blk) {
              if (blk.block_id() == 1) blk.ctx().store(o, 0, blk.ctx().load(w, 0));
            };
          };
          mg.grid(0).phase("read", two, read(word_a.cspan(), out_a.span()));
          mg.grid(1).phase("read", two, read(word_b.cspan(), out_b.span()));
        });
    a.memcpy_d2h(a.stream(0), out_a);
    b.memcpy_d2h(b.stream(0), out_b);
    EXPECT_EQ(out_a.h_read(0), 9u);
    EXPECT_EQ(out_b.h_read(0), 9u);
    EXPECT_EQ(san.unannotated_count(), 0u);
  }
  san.reset();
  san.disable();
}

}  // namespace
}  // namespace xbfs::sim
