// SimSan unit tests: one test per defect class (out-of-bounds, use-after-
// free, uninitialized read, stale host read), the cross-block race analyzer
// (harmful vs annotated vs all-atomic), env-spec parsing, and a regression
// test pinning down that the paper's bottom-up look-ahead race (HPDC'19
// v7->v8) is *annotated* with sim::racy_ok — reported as allowlisted with
// its documented reason — rather than suppressed or silently racy.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/frontier.h"
#include "core/kernels_bottomup.h"
#include "core/status.h"
#include "hipsim/hipsim.h"
#include "hipsim/sanitizer.h"

namespace xbfs {
namespace {

using graph::eid_t;
using graph::vid_t;
using sim::DefectKind;
using sim::SanitizeConfig;
using sim::Sanitizer;

/// Configure the global sanitizer for one test; on scope exit drop the
/// findings/registry and disable.  Declare FIRST in a test body so device
/// buffers die before reset() releases their shadows.
struct SanScope {
  explicit SanScope(SanitizeConfig cfg = SanitizeConfig::all_on()) {
    Sanitizer::global().configure(cfg);
  }
  ~SanScope() {
    Sanitizer::global().reset();
    Sanitizer::global().disable();
  }
};

sim::Device make_device() {
  return sim::Device(sim::DeviceProfile::mi250x_gcd(),
                     sim::SimOptions{.num_workers = 2});
}

std::uint64_t count(DefectKind k) {
  return Sanitizer::global().finding_count(k);
}

TEST(SanitizeConfigTest, ParsesCommaSeparatedModes) {
  const SanitizeConfig c = SanitizeConfig::from_env_string("races, bounds");
  EXPECT_TRUE(c.races);
  EXPECT_TRUE(c.bounds);
  EXPECT_FALSE(c.init);
  EXPECT_FALSE(c.stale);
  EXPECT_FALSE(c.free);

  const SanitizeConfig all = SanitizeConfig::from_env_string("all");
  EXPECT_TRUE(all.bounds && all.init && all.stale && all.free && all.races);

  EXPECT_FALSE(SanitizeConfig::from_env_string("").any());
  // Unknown tokens warn and are ignored, not fatal.
  EXPECT_TRUE(SanitizeConfig::from_env_string("bounds,zorp").bounds);
}

TEST(SanitizerTest, OutOfBoundsIndexIsReportedAndSkipped) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto buf = dev.alloc<std::uint32_t>(64, "t.oob");
  buf.h_fill(7);
  dev.memcpy_h2d(s, buf);
  auto out = dev.alloc<std::uint32_t>(2, "t.oob_out");
  out.h_fill(123);
  dev.memcpy_h2d(s, out);

  // A subspan narrows the legal range: index 40 is inside the buffer but
  // past the view.  Both the load and the store must be skipped.
  auto narrow = buf.span().subspan(0, 32);
  auto out_s = out.span();
  sim::LaunchConfig lc{.grid_blocks = 1, .block_threads = 64};
  dev.launch(s, "oob_probe", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t != 0) return;
      ctx.store(out_s, 0, ctx.load(narrow, 40));  // skipped load -> 0
      ctx.store(narrow, 55, std::uint32_t{9});    // skipped store
    });
  });
  s.synchronize();
  dev.memcpy_d2h(s, out);
  dev.memcpy_d2h(s, buf);

  EXPECT_GE(count(DefectKind::OutOfBounds), 2u);
  EXPECT_GE(Sanitizer::global().unannotated_count(), 2u);
  EXPECT_EQ(out.h_read(0), 0u);   // skipped load yielded a zero value
  EXPECT_EQ(buf.h_read(55), 7u);  // skipped store never landed
}

TEST(SanitizerTest, UseAfterFreeThroughDanglingSpan) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto out = dev.alloc<std::uint32_t>(1, "t.uaf_out");
  out.h_fill(123);
  dev.memcpy_h2d(s, out);

  sim::dspan<std::uint32_t> dangling;
  {
    auto victim = dev.alloc<std::uint32_t>(16, "t.uaf");
    victim.h_fill(5);
    dev.memcpy_h2d(s, victim);
    dangling = victim.span();
  }  // victim destroyed; its shadow lives on in the sanitizer registry

  auto out_s = out.span();
  sim::LaunchConfig lc{.grid_blocks = 1, .block_threads = 64};
  dev.launch(s, "uaf_probe", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t == 0) ctx.store(out_s, 0, ctx.load(dangling, 0));
    });
  });
  s.synchronize();
  dev.memcpy_d2h(s, out);

  EXPECT_GE(count(DefectKind::UseAfterFree), 1u);
  EXPECT_EQ(out.h_read(0), 0u);  // the freed storage was never dereferenced

  // The finding names the dead allocation.
  bool named = false;
  for (const sim::Finding& f : Sanitizer::global().findings()) {
    if (f.kind == DefectKind::UseAfterFree && f.buffer == "t.uaf") named = true;
  }
  EXPECT_TRUE(named);
}

TEST(SanitizerTest, ReadOfNeverWrittenWordIsUninit) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto buf = dev.alloc<std::uint32_t>(8, "t.uninit");  // never written
  auto out = dev.alloc<std::uint32_t>(1, "t.uninit_out");
  out.h_fill(0);
  dev.memcpy_h2d(s, out);

  auto buf_s = buf.cspan();
  auto out_s = out.span();
  sim::LaunchConfig lc{.grid_blocks = 1, .block_threads = 64};
  dev.launch(s, "uninit_probe", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t == 0) ctx.store(out_s, 0, ctx.load(buf_s, 3));
    });
  });
  s.synchronize();

  EXPECT_GE(count(DefectKind::UninitRead), 1u);

  // After a full host fill + upload the same read is clean.
  const std::uint64_t before = count(DefectKind::UninitRead);
  buf.h_fill(1);
  dev.memcpy_h2d(s, buf);
  dev.launch(s, "uninit_probe2", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t == 0) ctx.store(out_s, 0, ctx.load(buf_s, 3));
    });
  });
  s.synchronize();
  EXPECT_EQ(count(DefectKind::UninitRead), before);
}

TEST(SanitizerTest, HostReadOfDirtyDeviceDataIsStale) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto buf = dev.alloc<std::uint32_t>(4, "t.stale");
  buf.h_fill(0);
  dev.memcpy_h2d(s, buf);

  auto buf_s = buf.span();
  sim::LaunchConfig lc{.grid_blocks = 1, .block_threads = 64};
  dev.launch(s, "stale_writer", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t == 0) ctx.store(buf_s, 0, std::uint32_t{42});
    });
  });
  s.synchronize();

  // Device wrote, nobody copied back: the host read is flagged (the value
  // still comes back — the simulator's backing store is host memory).
  (void)buf.h_read(0);
  EXPECT_GE(count(DefectKind::StaleHostRead), 1u);

  const std::uint64_t before = count(DefectKind::StaleHostRead);
  dev.memcpy_d2h(s, buf);
  EXPECT_EQ(buf.h_read(0), 42u);  // synced read is clean
  EXPECT_EQ(count(DefectKind::StaleHostRead), before);
}

TEST(SanitizerTest, CrossBlockPlainStoresAreAHarmfulRace) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto buf = dev.alloc<std::uint32_t>(4, "t.racy");
  buf.h_fill(0);
  dev.memcpy_h2d(s, buf);

  auto buf_s = buf.span();
  sim::LaunchConfig lc{.grid_blocks = 4, .block_threads = 64};
  dev.launch(s, "racy_store", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t == 0) ctx.store(buf_s, 0, blk.block_id());
    });
  });
  s.synchronize();

  EXPECT_GE(count(DefectKind::DataRace), 1u);
  EXPECT_EQ(count(DefectKind::DataRaceAllowlisted), 0u);
  EXPECT_GE(Sanitizer::global().unannotated_count(), 1u);
}

TEST(SanitizerTest, RacyOkAnnotationAllowlistsWithItsReason) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto buf = dev.alloc<std::uint32_t>(4, "t.benign");
  buf.h_fill(0);
  dev.memcpy_h2d(s, buf);

  auto buf_s = buf.span();
  sim::LaunchConfig lc{.grid_blocks = 4, .block_threads = 64};
  dev.launch(s, "benign_store", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t != 0) return;
      sim::racy_ok allow(ctx, "test: same-value store from every block");
      ctx.store(buf_s, 0, std::uint32_t{1});
    });
  });
  s.synchronize();

  EXPECT_EQ(count(DefectKind::DataRace), 0u);
  EXPECT_GE(count(DefectKind::DataRaceAllowlisted), 1u);
  EXPECT_EQ(Sanitizer::global().unannotated_count(), 0u);

  // The documented reason travels into the finding.
  bool reason_seen = false;
  for (const sim::Finding& f : Sanitizer::global().findings()) {
    if (f.kind == DefectKind::DataRaceAllowlisted &&
        f.detail.find("same-value store") != std::string::npos) {
      reason_seen = true;
    }
  }
  EXPECT_TRUE(reason_seen);
}

TEST(SanitizerTest, AtomicContentionIsNotARace) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto buf = dev.alloc<std::uint32_t>(1, "t.atomic");
  buf.h_fill(0);
  dev.memcpy_h2d(s, buf);

  auto buf_s = buf.span();
  sim::LaunchConfig lc{.grid_blocks = 4, .block_threads = 64};
  dev.launch(s, "atomic_adds", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned) {
      ctx.atomic_add(buf_s, 0, std::uint32_t{1});
    });
  });
  s.synchronize();
  dev.memcpy_d2h(s, buf);

  EXPECT_EQ(count(DefectKind::DataRace), 0u);
  EXPECT_EQ(count(DefectKind::DataRaceAllowlisted), 0u);
  EXPECT_EQ(buf.h_read(0), 4u * 64u);
}

TEST(SanitizerTest, DisabledSanitizerAllocatesNoShadows) {
  // No SanScope: the sanitizer stays off, so buffers carry no shadow and
  // racy kernels produce no findings.
  ASSERT_FALSE(Sanitizer::global().enabled());
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto buf = dev.alloc<std::uint32_t>(4, "t.off");
  EXPECT_EQ(buf.span().shadow(), nullptr);

  auto buf_s = buf.span();
  sim::LaunchConfig lc{.grid_blocks = 4, .block_threads = 64};
  dev.launch(s, "off_store", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t == 0) ctx.store(buf_s, 0, std::uint32_t{1});
    });
  });
  s.synchronize();
  EXPECT_EQ(count(DefectKind::DataRace), 0u);
}

// --- regression: the paper's look-ahead race stays annotated -----------------
//
// Reconstructs the HPDC'19 v7->v8 situation with a surgical launch of k5
// (xbfs_bu_expand) alone: a chain graph where every bottom-up candidate's
// adjacency list probes its predecessor (committed in the SAME pass by a
// different wavefront/block) before finding the level-0 root.  The plain
// status commit racing with those atomic probes is the intentional race the
// paper tolerates; SimSan must (a) observe it and (b) classify it as
// allowlisted via the sim::racy_ok annotation in kernels_bottomup.cpp —
// with zero unannotated findings from the whole launch.
TEST(SanitizerTest, BottomUpLookAheadRaceIsAnnotatedNotSuppressed) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  constexpr std::uint32_t kN = 600;
  // Vertex 0: the level-0 root, no out-edges.  Vertex v >= 1: edge list
  // [v-1, 0] — the predecessor FIRST so every candidate's scan probes a
  // vertex being committed this pass before early-terminating on the root.
  std::vector<eid_t> offsets(kN + 1);
  std::vector<vid_t> cols;
  offsets[0] = 0;
  offsets[1] = 0;
  for (vid_t v = 1; v < kN; ++v) {
    cols.push_back(v - 1);
    cols.push_back(0);
    offsets[v + 1] = static_cast<eid_t>(cols.size());
  }

  auto d_offsets = dev.alloc<eid_t>(offsets.size(), "la.offsets");
  d_offsets.h_copy_from(offsets.data(), offsets.size());
  auto d_cols = dev.alloc<vid_t>(cols.size(), "la.cols");
  d_cols.h_copy_from(cols.data(), cols.size());
  auto d_status = dev.alloc<std::uint32_t>(kN, "la.status");
  d_status.h_fill(core::kUnvisited);
  d_status.h_write(0, 0);  // root at level 0
  auto d_bu_queue = dev.alloc<vid_t>(kN, "la.bu_queue");
  for (vid_t v = 1; v < kN; ++v) d_bu_queue.h_write(v - 1, v);
  auto d_next_queue = dev.alloc<vid_t>(kN, "la.next_queue");
  auto d_pending_queue = dev.alloc<vid_t>(kN, "la.pending_queue");
  auto d_counters = dev.alloc<std::uint32_t>(core::kNumCounters, "la.counters");
  d_counters.h_fill(0);
  // k5 reads the candidate total where k3 (bu_scan_final) leaves it.
  d_counters.h_write(core::kCurTail, kN - 1);
  auto d_edge_counters =
      dev.alloc<std::uint64_t>(core::kNumEdgeCounters, "la.edge_counters");
  d_edge_counters.h_fill(0);
  dev.memcpy_h2d(s, d_offsets, d_cols, d_status, d_bu_queue, d_counters,
                 d_edge_counters);

  core::BottomUpArgs a;
  a.adj.offsets = d_offsets.cspan();
  a.adj.cols = d_cols.cspan();
  a.status = d_status.span();
  a.bu_queue = d_bu_queue.span();
  a.next_queue = d_next_queue.span();
  a.pending_queue = d_pending_queue.span();
  a.counters = d_counters.span();
  a.edge_counters = d_edge_counters.span();
  a.n = kN;
  a.cur_level = 0;

  core::XbfsConfig cfg;
  cfg.block_threads = 64;  // one wavefront per block ...
  cfg.grid_blocks = 4;     // ... so adjacent 64-candidate chunks are in
                           // different blocks: probe-vs-commit conflicts at
                           // every chunk boundary are cross-block.
  core::launch_bu_expand(dev, s, a, kN - 1, cfg);
  s.synchronize();

  EXPECT_GE(count(DefectKind::DataRaceAllowlisted), 1u)
      << "the look-ahead race must be OBSERVED (not suppressed)";
  EXPECT_EQ(Sanitizer::global().unannotated_count(), 0u)
      << "the look-ahead race must be ANNOTATED (sim::racy_ok)";

  bool documented = false;
  for (const sim::Finding& f : Sanitizer::global().findings()) {
    if (f.kind == DefectKind::DataRaceAllowlisted &&
        f.kernel == "xbfs_bu_expand" &&
        f.detail.find("look-ahead") != std::string::npos) {
      documented = true;
    }
  }
  EXPECT_TRUE(documented)
      << "the allowlisted finding must carry the kernel's documented reason";

  // And the traversal result is still the correct BFS: every candidate is
  // adjacent to the root, so all of them land exactly at level 1.
  dev.memcpy_d2h(s, d_status, d_counters);
  for (vid_t v = 1; v < kN; ++v) {
    EXPECT_EQ(d_status.h_read(v), 1u) << "vertex " << v;
  }
  EXPECT_EQ(d_counters.h_read(core::kNextTail), kN - 1);
}

// Allowlist hygiene: an annotation whose scope runs AND covers logged
// accesses is live; one whose scope runs but covers nothing is stale (the
// racy code it documented has moved, and the entry would silently excuse a
// future, different race).  check_sanitize fails the build on stale
// entries via Sanitizer::stale_annotations().
TEST(SanitizerTest, AnnotationStatsSeparateLiveFromStale) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);

  auto buf = dev.alloc<std::uint32_t>(4, "t.annstats");
  buf.h_fill(0);
  dev.memcpy_h2d(s, buf);

  auto buf_s = buf.span();
  sim::LaunchConfig lc{.grid_blocks = 2, .block_threads = 64};
  dev.launch(s, "ann_stats_kernel", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t != 0) return;
      {
        sim::racy_ok live(ctx, "test: live annotation covers this store");
        ctx.store(buf_s, 0, std::uint32_t{1});
      }
      {
        // Scope entered, zero accesses inside: the stale pattern.
        sim::racy_ok stale(ctx, "test: stale annotation covers nothing");
      }
    });
  });
  s.synchronize();

  const auto stats = Sanitizer::global().annotation_stats();
  const sim::Sanitizer::AnnotationStats* live = nullptr;
  const sim::Sanitizer::AnnotationStats* stale = nullptr;
  for (const auto& a : stats) {
    if (a.why.find("live annotation") != std::string::npos) live = &a;
    if (a.why.find("stale annotation") != std::string::npos) stale = &a;
  }
  ASSERT_NE(live, nullptr);
  ASSERT_NE(stale, nullptr);
  EXPECT_GT(live->scopes_entered, 0u);
  EXPECT_GT(live->annotated_accesses, 0u);
  EXPECT_GT(stale->scopes_entered, 0u);
  EXPECT_EQ(stale->annotated_accesses, 0u);

  const auto stale_list = Sanitizer::global().stale_annotations();
  bool flagged = false;
  for (const auto& why : stale_list) {
    EXPECT_EQ(why.find("live annotation"), std::string::npos)
        << "a covering annotation must never be flagged stale";
    if (why.find("stale annotation") != std::string::npos) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

// reset() drops the accumulated annotation statistics with the findings.
TEST(SanitizerTest, ResetClearsAnnotationStats) {
  SanScope guard;
  sim::Device dev = make_device();
  sim::Stream& s = dev.stream(0);
  auto buf = dev.alloc<std::uint32_t>(1, "t.annreset");
  buf.h_fill(0);
  dev.memcpy_h2d(s, buf);
  auto buf_s = buf.span();
  sim::LaunchConfig lc{.grid_blocks = 2, .block_threads = 64};
  dev.launch(s, "ann_reset_kernel", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned t) {
      if (t != 0) return;
      sim::racy_ok allow(ctx, "test: reset drops me");
      ctx.store(buf_s, 0, std::uint32_t{1});
    });
  });
  s.synchronize();
  EXPECT_FALSE(Sanitizer::global().annotation_stats().empty());
  Sanitizer::global().reset();
  EXPECT_TRUE(Sanitizer::global().annotation_stats().empty());
}

}  // namespace
}  // namespace xbfs
