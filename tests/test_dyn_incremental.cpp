// Dynamic-graph subsystem tests: DeltaCsr overlay semantics, GraphStore
// snapshot versioning and compaction, and the property that
// dyn::IncrementalBfs levels always match a fresh reference BFS on the
// updated graph: Xbfs over the incrementally patched device mirror sees
// exactly the live edge set.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "dyn/delta_ref.h"
#include "dyn/graph_store.h"
#include "dyn/incremental_bfs.h"
#include "graph/builder.h"
#include "graph/reference.h"
#include "graph/rmat.h"

namespace xbfs::dyn {
namespace {

using graph::vid_t;

graph::Csr path5() {
  return graph::build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
}

// --- DeltaCsr overlay semantics -------------------------------------------

TEST(DeltaCsr, InsertDeleteRevive) {
  DeltaCsr g(path5());
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 3));

  EdgeBatch b;
  b.insert(0, 3);
  b.erase(1, 2);
  const ApplyStats st = g.apply(b);
  EXPECT_EQ(st.inserts_applied, 1u);
  EXPECT_EQ(st.deletes_applied, 1u);
  EXPECT_EQ(st.noops, 0u);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(3, 0));  // undirected
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_EQ(g.num_edges(), path5().num_edges());  // -2 tomb +2 extra
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(0), 2u);

  // Re-inserting a tombstoned base edge revives it in place.
  EdgeBatch revive;
  revive.insert(1, 2);
  const ApplyStats rst = g.apply(revive);
  EXPECT_EQ(rst.inserts_applied, 1u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.tombstone_entries(), 0u);
}

TEST(DeltaCsr, NoopsAreCountedNotApplied) {
  DeltaCsr g(path5());
  EdgeBatch b;
  b.insert(0, 1);   // already present
  b.erase(0, 4);    // not present
  b.insert(2, 2);   // self-loop
  b.erase(9, 1);    // out of range
  const ApplyStats st = g.apply(b);
  EXPECT_EQ(st.inserts_applied, 0u);
  EXPECT_EQ(st.deletes_applied, 0u);
  EXPECT_EQ(st.noops, 4u);
  EXPECT_EQ(g.num_edges(), path5().num_edges());
}

TEST(DeltaCsr, EveryBatchBumpsTheEpoch) {
  DeltaCsr g(path5());
  EXPECT_EQ(g.epoch(), 0u);
  EdgeBatch noop;
  noop.insert(0, 1);
  g.apply(noop);
  EXPECT_EQ(g.epoch(), 1u);  // even an all-noop batch is a new epoch
  EdgeBatch real;
  real.insert(0, 3);
  g.apply(real);
  EXPECT_EQ(g.epoch(), 2u);
}

TEST(DeltaCsr, FingerprintChangesOnApplyAndMixesEpoch) {
  DeltaCsr g(path5());
  const std::uint64_t fp0 = g.fingerprint();
  EdgeBatch b;
  b.insert(0, 3);
  g.apply(b);
  const std::uint64_t fp1 = g.fingerprint();
  EXPECT_NE(fp0, fp1);
  // Undo the structural change; the epoch still advanced, so the
  // fingerprint must not return to fp0 (cache keys never alias epochs).
  EdgeBatch undo;
  undo.erase(0, 3);
  g.apply(undo);
  EXPECT_NE(g.fingerprint(), fp0);
  EXPECT_NE(g.fingerprint(), fp1);
}

TEST(DeltaCsr, CompactPreservesGraphAndEpoch) {
  DeltaCsr g(path5());
  EdgeBatch b;
  b.insert(0, 3);
  b.insert(1, 4);
  b.erase(2, 3);
  g.apply(b);
  const auto before = reference_bfs(g, 0);
  const std::uint64_t epoch = g.epoch();
  EXPECT_GT(g.overlay_density(), 0.0);

  g.compact();
  EXPECT_EQ(g.overlay_density(), 0.0);
  EXPECT_EQ(g.epoch(), epoch);
  EXPECT_EQ(g.base_version(), 1u);
  EXPECT_EQ(reference_bfs(g, 0), before);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(DeltaCsr, MaterializeMatchesBuilder) {
  DeltaCsr g(path5());
  EdgeBatch b;
  b.insert(0, 4);
  b.erase(1, 2);
  g.apply(b);
  const graph::Csr m = g.materialize();
  const graph::Csr expect =
      graph::build_csr(5, {{0, 1}, {2, 3}, {3, 4}, {0, 4}});
  EXPECT_EQ(m.offsets(), expect.offsets());
  EXPECT_EQ(m.cols(), expect.cols());
}

TEST(DeltaCsr, RejectsUnsortedBaseAdjacency) {
  // Binary-search membership needs strictly increasing neighbor lists.
  const graph::Csr bad({0, 2, 4}, {1, 1, 0, 0});  // duplicate neighbors
  EXPECT_THROW(DeltaCsr{bad}, std::invalid_argument);
}

// --- GraphStore snapshots + update log ------------------------------------

TEST(GraphStore, SnapshotsAreImmutableUnderWrites) {
  GraphStore store(path5());
  const Snapshot s0 = store.snapshot();
  EXPECT_EQ(s0.epoch, 0u);

  EdgeBatch b;
  b.erase(0, 1);
  store.apply(b);
  const Snapshot s1 = store.snapshot();

  // The old snapshot still sees the pre-update graph.
  EXPECT_TRUE(s0.graph->has_edge(0, 1));
  EXPECT_FALSE(s1.graph->has_edge(0, 1));
  EXPECT_EQ(s1.epoch, 1u);
  EXPECT_NE(s0.fingerprint, s1.fingerprint);
}

TEST(GraphStore, CompactsPastDensityThreshold) {
  core::XbfsConfig cfg;
  cfg.dyn_compact_threshold = 0.25;
  GraphStore store(path5(), cfg);
  EdgeBatch big;
  big.insert(0, 2);
  big.insert(0, 3);
  big.insert(1, 3);
  store.apply(big);  // 6 directed overlay entries vs 8 base: density 0.75
  EXPECT_EQ(store.stats().compactions, 1u);
  const Snapshot s = store.snapshot();
  EXPECT_EQ(s.graph->overlay_density(), 0.0);
  EXPECT_EQ(s.graph->base_version(), 1u);
  EXPECT_TRUE(s.graph->has_edge(1, 3));
}

// --- IncrementalBfs -------------------------------------------------------

struct EngineFixture {
  sim::Device dev{sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 2}};
};

void expect_matches_reference(const GraphStore& store, IncrementalBfs& eng,
                              vid_t src, const char* tag) {
  const Snapshot snap = store.snapshot();
  const core::BfsResult got = eng.run(src);
  const std::vector<std::int32_t> want = reference_bfs(*snap.graph, src);
  ASSERT_EQ(got.levels, want) << tag << " (epoch " << snap.epoch << ")";
  EXPECT_TRUE(graph::validate_levels_graph500(*snap.graph, src, got.levels)
                  .empty())
      << tag;
}

TEST(DynIncremental, RepairMatchesReferenceOnRandomChurn) {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 8;
  p.seed = 42;
  const graph::Csr base = graph::rmat_csr(p);
  const vid_t n = base.num_vertices();

  EngineFixture fx;
  GraphStore store(base);
  core::XbfsConfig cfg;
  cfg.report_runs = false;
  DeviceMirror mirror(fx.dev, store, cfg.block_threads);
  IncrementalBfs eng(mirror, cfg);

  std::mt19937_64 rng(7);
  std::uniform_int_distribution<vid_t> pick(0, n - 1);
  const vid_t src = 1;

  expect_matches_reference(store, eng, src, "cold");

  for (int round = 0; round < 6; ++round) {
    EdgeBatch b;
    // ~20 random ops: delete existing edges, insert missing ones.
    const Snapshot cur = store.snapshot();
    for (int i = 0; i < 20; ++i) {
      const vid_t u = pick(rng);
      const vid_t v = pick(rng);
      if (u == v) continue;
      if (cur.graph->has_edge(u, v)) {
        b.erase(u, v);
      } else {
        b.insert(u, v);
      }
    }
    store.apply(b);
    expect_matches_reference(store, eng, src, "churn round");
  }

  const DynEngineStats st = eng.stats();
  EXPECT_EQ(st.runs, 7u);
  EXPECT_EQ(st.device_syncs, 7u) << "one mirror sync per new epoch";
  EXPECT_EQ(st.full_uploads, 1u) << "no compaction: one base upload";
}

TEST(DynIncremental, DeleteOnlyRepairMatchesReference) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 8;
  p.seed = 11;
  const graph::Csr base = graph::rmat_csr(p);

  EngineFixture fx;
  GraphStore store(base);
  core::XbfsConfig cfg;
  cfg.report_runs = false;
  DeviceMirror mirror(fx.dev, store, cfg.block_threads);
  IncrementalBfs eng(mirror, cfg);
  const vid_t src = 0;
  eng.run(src);

  std::mt19937_64 rng(3);
  std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
  for (int round = 0; round < 4; ++round) {
    EdgeBatch b;
    const Snapshot cur = store.snapshot();
    int found = 0;
    while (found < 8) {
      const vid_t u = pick(rng);
      if (cur.graph->degree(u) == 0) continue;
      std::vector<vid_t> nb;
      cur.graph->for_each_neighbor(u, [&](vid_t w) { nb.push_back(w); });
      b.erase(u, nb[found % nb.size()]);
      ++found;
    }
    store.apply(b);
    expect_matches_reference(store, eng, src, "delete-only round");
  }
}

TEST(DynIncremental, BridgeDeletionDisconnectsComponent) {
  // 0-1-2  3-4-5 joined by bridge 2-3: deleting it must drop 3,4,5 to -1.
  const graph::Csr g =
      graph::build_csr(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  EngineFixture fx;
  GraphStore store(g);
  core::XbfsConfig cfg;
  cfg.report_runs = false;
  DeviceMirror mirror(fx.dev, store, cfg.block_threads);
  IncrementalBfs eng(mirror, cfg);
  eng.run(0);

  EdgeBatch b;
  b.erase(2, 3);
  store.apply(b);
  const core::BfsResult r = eng.run(0);
  EXPECT_EQ(r.levels, (std::vector<std::int32_t>{0, 1, 2, -1, -1, -1}));
}

TEST(DynIncremental, InsertReachesTheUnreached) {
  // Component {0,1} + isolated {2,3}: inserting 1-2 pulls both in.
  const graph::Csr g = graph::build_csr(4, {{0, 1}, {2, 3}});
  EngineFixture fx;
  GraphStore store(g);
  core::XbfsConfig cfg;
  cfg.report_runs = false;
  DeviceMirror mirror(fx.dev, store, cfg.block_threads);
  IncrementalBfs eng(mirror, cfg);
  const core::BfsResult cold = eng.run(0);
  EXPECT_EQ(cold.levels, (std::vector<std::int32_t>{0, 1, -1, -1}));

  EdgeBatch b;
  b.insert(1, 2);
  store.apply(b);
  const core::BfsResult warm = eng.run(0);
  EXPECT_EQ(warm.levels, (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(DynIncremental, StatsReadableWhileRunning) {
  EngineFixture fx;
  GraphStore store(path5());
  core::XbfsConfig cfg;
  cfg.report_runs = false;
  DeviceMirror mirror(fx.dev, store, cfg.block_threads);
  IncrementalBfs eng(mirror, cfg);
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) (void)eng.stats();
  });
  for (int i = 0; i < 5; ++i) eng.run(0);
  reader.join();
  EXPECT_EQ(eng.stats().runs, 5u);
}

}  // namespace
}  // namespace xbfs::dyn
