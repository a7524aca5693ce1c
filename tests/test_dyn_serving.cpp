// Dynamic serving tests: the result cache's epoch-bump purge / lazy stale
// reap, the server's update-admission lane (writes serialized, reads never
// blocked, cache purged per epoch), that every query served across a
// stream of updates matches a fresh reference BFS on the exact graph the
// result was computed against, and that dynamic CC (lp-cc over the GCD's
// shared device mirror, then the host oracle) matches
// graph::canonical_components under churn, compaction and faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dyn/delta_ref.h"
#include "dyn/graph_store.h"
#include "graph/builder.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/fault.h"
#include "serve/result_cache.h"
#include "serve/server.h"

namespace xbfs::serve {
namespace {

using graph::vid_t;

graph::Csr undirected_rmat(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::rmat_csr(p);
}

ServeConfig manual_config() {
  ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  cfg.xbfs.report_runs = false;
  return cfg;
}

CachedResult make_result(std::uint32_t depth) {
  CachedResult r;
  r.levels = std::make_shared<const std::vector<std::int32_t>>(
      std::vector<std::int32_t>{0, 1});
  r.depth = depth;
  return r;
}

// --- ResultCache epoch invalidation ---------------------------------------

constexpr core::AlgoKind kBfs = core::AlgoKind::Bfs;
const std::uint64_t kBfsParams = bfs_params_hash();

TEST(DynResultCache, EpochBumpPurgesRetiredEpochs) {
  ResultCache cache(8, 1);
  cache.prime(100);
  cache.put(100, kBfs, kBfsParams, 1, make_result(1));
  cache.put(100, kBfs, kBfsParams, 2, make_result(1));
  EXPECT_EQ(cache.size(), 2u);

  const std::size_t purged = cache.epoch_bump(200);
  EXPECT_EQ(purged, 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(static_cast<bool>(cache.get(100, kBfs, kBfsParams, 1)));

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.epoch_bumps, 1u);
  EXPECT_EQ(s.purged_stale, 2u);
}

TEST(DynResultCache, EpochBumpKeepsCurrentEpochEntries) {
  ResultCache cache(8, 1);
  cache.prime(100);
  // Already keyed under the new epoch.
  cache.put(200, kBfs, kBfsParams, 1, make_result(1));
  cache.put(100, kBfs, kBfsParams, 2, make_result(1));
  EXPECT_EQ(cache.epoch_bump(200), 1u);  // only the epoch-100 entry goes
  EXPECT_TRUE(static_cast<bool>(cache.get(200, kBfs, kBfsParams, 1)));
}

TEST(DynResultCache, LazyReapCountsAvoidedStaleHits) {
  // A purge can't run (e.g. an entry was inserted under the old key after
  // the sweep); the get() path must still reap the prior epoch's twin.
  ResultCache cache(8, 1);
  cache.prime(100);
  cache.epoch_bump(200);          // prev=100, current=200
  // A straggler under the retired epoch.
  cache.put(100, kBfs, kBfsParams, 7, make_result(1));
  EXPECT_EQ(cache.size(), 1u);

  // Miss on the live key for the same source: the stale twin is dropped.
  EXPECT_FALSE(static_cast<bool>(cache.get(200, kBfs, kBfsParams, 7)));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stale_hits_avoided, 1u);
}

TEST(DynResultCache, UnprimedCacheNeverReaps) {
  ResultCache cache(8, 1);
  cache.put(100, kBfs, kBfsParams, 7, make_result(1));
  // A plain miss.
  EXPECT_FALSE(static_cast<bool>(cache.get(200, kBfs, kBfsParams, 7)));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().stale_hits_avoided, 0u);
}

// --- dynamic server -------------------------------------------------------

std::vector<std::int32_t> query_levels(Server& server, vid_t src) {
  Admission a = server.submit(src);
  EXPECT_TRUE(a.accepted);
  while (server.dispatch_once() == 0 &&
         a.result.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
  }
  QueryResult r = a.result.get();
  EXPECT_EQ(r.status, QueryStatus::Completed);
  return r.levels ? *r.levels : std::vector<std::int32_t>{};
}

TEST(DynServing, StaticServerRejectsUpdates) {
  const graph::Csr g = graph::build_csr(4, {{0, 1}, {1, 2}});
  Server server(g, manual_config());
  dyn::EdgeBatch b;
  b.insert(2, 3);
  const UpdateAdmission a = server.submit_update(b);
  EXPECT_FALSE(a.accepted);
  EXPECT_EQ(a.status.code(), xbfs::StatusCode::InvalidArgument);
  EXPECT_FALSE(server.dynamic());
  server.shutdown();
}

TEST(DynServing, UpdatesApplyAndInvalidateCache) {
  dyn::GraphStore store(graph::build_csr(4, {{0, 1}, {1, 2}, {2, 3}}));
  Server server(store, manual_config());
  EXPECT_TRUE(server.dynamic());

  // Warm the cache, then update: levels must reflect the new graph.
  EXPECT_EQ(query_levels(server, 0),
            (std::vector<std::int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(query_levels(server, 0),
            (std::vector<std::int32_t>{0, 1, 2, 3}));  // cache hit

  dyn::EdgeBatch b;
  b.insert(0, 3);
  const UpdateAdmission a = server.submit_update(b);
  ASSERT_TRUE(a.accepted);
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_EQ(a.applied.inserts_applied, 1u);
  EXPECT_EQ(a.fingerprint, server.graph_fingerprint());
  EXPECT_GE(a.cache_purged, 1u);  // the warmed entry went with the epoch

  EXPECT_EQ(query_levels(server, 0),
            (std::vector<std::int32_t>{0, 1, 2, 1}));

  const ServerStats st = server.stats();
  EXPECT_EQ(st.updates_submitted, 1u);
  EXPECT_EQ(st.updates_applied, 1u);
  EXPECT_EQ(st.update_edges_applied, 1u);
  EXPECT_EQ(st.graph_epoch, 1u);
  EXPECT_GE(st.cache_epoch_bumps, 1u);
  EXPECT_GE(st.cache_purged_stale, 1u);
  EXPECT_GE(st.recomputes, 1u);
  server.shutdown();
}

TEST(DynServing, ServedLevelsTrackUpdatesAgainstReference) {
  const graph::Csr base = undirected_rmat(8, 21);
  dyn::GraphStore store(base);
  Server server(store, manual_config());

  std::mt19937_64 rng(13);
  std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
  for (int round = 0; round < 5; ++round) {
    dyn::EdgeBatch b;
    const dyn::Snapshot cur = store.snapshot();
    for (int i = 0; i < 6; ++i) {
      const vid_t u = pick(rng);
      const vid_t v = pick(rng);
      if (u == v) continue;
      if (cur.graph->has_edge(u, v)) {
        b.erase(u, v);
      } else {
        b.insert(u, v);
      }
    }
    ASSERT_TRUE(server.submit_update(b).accepted);

    const vid_t src = pick(rng);
    const std::vector<std::int32_t> got = query_levels(server, src);
    const dyn::Snapshot now = store.snapshot();
    EXPECT_EQ(got, dyn::reference_bfs(*now.graph, src))
        << "round " << round << " src " << src;
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.graph_epoch, 5u);
  EXPECT_GT(st.repairs + st.recomputes, 0u);
  server.shutdown();
}

TEST(DynServing, ReadsAreNeverBlockedByWrites) {
  const graph::Csr base = undirected_rmat(8, 33);
  dyn::GraphStore store(base);
  ServeConfig cfg;  // threaded scheduler: reads and writes overlap
  cfg.xbfs.report_runs = false;
  cfg.num_gcds = 2;
  Server server(store, cfg);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::mt19937_64 rng(1);
    std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
    while (!stop.load(std::memory_order_acquire)) {
      dyn::EdgeBatch b;
      const vid_t u = pick(rng);
      const vid_t v = pick(rng);
      if (u != v) {
        if (store.snapshot().graph->has_edge(u, v)) {
          b.erase(u, v);
        } else {
          b.insert(u, v);
        }
        server.submit_update(b);
      }
      std::this_thread::yield();
    }
  });

  std::mt19937_64 rng(2);
  std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 64; ++i) {
    Admission a = server.submit(pick(rng));
    ASSERT_TRUE(a.accepted);
    if (a.result.valid()) futs.push_back(std::move(a.result));
  }
  server.drain();
  stop.store(true, std::memory_order_release);
  writer.join();

  std::size_t completed = 0;
  for (auto& f : futs) {
    const QueryResult r = f.get();
    // Every query resolves with levels; the snapshot it ran on is one of
    // the epochs the writer published, so validate shape only.
    EXPECT_EQ(r.status, QueryStatus::Completed);
    ASSERT_TRUE(r.levels);
    EXPECT_EQ(r.levels->size(), base.num_vertices());
    ++completed;
  }
  EXPECT_EQ(completed, futs.size());
  EXPECT_GT(server.stats().updates_applied, 0u);
  server.shutdown();
}

TEST(DynServing, ShutdownRejectsUpdates) {
  dyn::GraphStore store(graph::build_csr(3, {{0, 1}, {1, 2}}));
  Server server(store, manual_config());
  server.shutdown();
  dyn::EdgeBatch b;
  b.insert(0, 2);
  const UpdateAdmission a = server.submit_update(b);
  EXPECT_FALSE(a.accepted);
  EXPECT_EQ(a.status.code(), xbfs::StatusCode::ShuttingDown);
}

TEST(DynServing, SummaryCarriesDynamicCounters) {
  dyn::GraphStore store(graph::build_csr(4, {{0, 1}, {1, 2}, {2, 3}}));
  Server server(store, manual_config());
  (void)query_levels(server, 0);
  dyn::EdgeBatch b;
  b.insert(0, 2);
  server.submit_update(b);
  (void)query_levels(server, 0);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.updates_applied, 1u);
  EXPECT_EQ(st.graph_epoch, 1u);
  EXPECT_EQ(st.repairs + st.recomputes, st.computed_sources);
  server.shutdown();
}

// --- dynamic CC over the shared device mirror -------------------------------

/// Submit every query of `qs` (cache bypassed, so each cycle runs an
/// engine), dispatch them together, and return their results.
std::vector<QueryResult> run_cycle(Server& server,
                                   const std::vector<core::AlgoQuery>& qs) {
  QueryOptions opt;
  opt.bypass_cache = true;
  std::vector<std::future<QueryResult>> futs;
  for (const core::AlgoQuery& q : qs) {
    Admission a = server.submit(q, opt);
    EXPECT_TRUE(a.accepted) << a.status.to_string();
    futs.push_back(std::move(a.result));
  }
  std::vector<QueryResult> out;
  for (auto& f : futs) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      server.dispatch_once();
    }
    out.push_back(f.get());
  }
  return out;
}

/// `ops` seeded updates against the live graph: delete a random live edge
/// or insert a random absent pair.
dyn::EdgeBatch churn(const dyn::DeltaCsr& g, std::mt19937_64& rng,
                     unsigned ops) {
  std::uniform_int_distribution<vid_t> pick(0, g.num_vertices() - 1);
  dyn::EdgeBatch b;
  for (unsigned i = 0; i < ops; ++i) {
    const vid_t u = pick(rng);
    const vid_t v = pick(rng);
    if (u == v) continue;
    if (g.has_edge(u, v)) {
      b.erase(u, v);
    } else {
      b.insert(u, v);
    }
  }
  return b;
}

TEST(DynServing, CcOverTheSharedMirrorMatchesTheOracleUnderChurn) {
  constexpr std::uint64_t kSeed = 23;
  SCOPED_TRACE("replay=" + std::to_string(kSeed));
  const graph::Csr base = undirected_rmat(8, kSeed);
  dyn::GraphStore store(base);
  ServeConfig cfg = manual_config();
  cfg.num_gcds = 2;
  cfg.algos = {core::AlgoKind::Bfs, core::AlgoKind::Cc};
  cfg.validate_results = ValidateResults::Always;
  Server server(store, cfg);
  std::mt19937_64 rng(kSeed);
  // Query sources come from their own stream: how many cycles a round takes
  // depends on lane scheduling, and must not change the update sequence.
  std::mt19937_64 src_rng(kSeed + 1);
  std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
  core::AlgoQuery cq;
  cq.algo = core::AlgoKind::Cc;

  // One CC and eight BFS queries per cycle, until both GCDs have run CC on
  // this epoch: each mirror then syncs past every compaction with both
  // kinds reading it.  `runs_on` counts the device runs each GCD made (one
  // per distinct query of a cycle).
  std::uint64_t runs_on[2] = {0, 0};
  const auto serve_epoch = [&](const std::string& what) {
    SCOPED_TRACE(what);
    const dyn::Snapshot snap = store.snapshot();
    const std::vector<vid_t> want = graph::canonical_components(*snap.graph);
    bool cc_on[2] = {false, false};
    for (int cycle = 0; cycle < 64 && !(cc_on[0] && cc_on[1]); ++cycle) {
      std::vector<core::AlgoQuery> qs{cq};
      for (int i = 0; i < 8; ++i) {
        core::AlgoQuery bq;
        bq.source = pick(src_rng);
        qs.push_back(bq);
      }
      std::set<std::pair<core::AlgoKind, vid_t>> units;
      for (const QueryResult& r : run_cycle(server, qs)) {
        ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
        if (units.insert({r.algo, r.source}).second) ++runs_on[r.gcd];
        EXPECT_TRUE(r.validated);
        EXPECT_FALSE(r.degraded) << r.engine;
        if (r.algo == core::AlgoKind::Cc) {
          ASSERT_TRUE(r.payload.components);
          EXPECT_EQ(*r.payload.components, want);
          EXPECT_EQ(graph::validate_components(*snap.graph,
                                               *r.payload.components),
                    "");
          EXPECT_EQ(r.engine, "lp-cc");
          cc_on[r.gcd] = true;
        } else {
          ASSERT_TRUE(r.levels);
          EXPECT_EQ(*r.levels, dyn::reference_bfs(*snap.graph, r.source));
        }
      }
    }
    ASSERT_TRUE(cc_on[0] && cc_on[1]) << "a GCD never served CC";
  };

  serve_epoch("cold");
  bool revived = false;
  for (int round = 0; round < 6; ++round) {
    const dyn::Snapshot cur = store.snapshot();
    dyn::EdgeBatch b = churn(*cur.graph, rng, 12);
    if (round == 3) {
      // Revive a tombstoned base edge: the mirror writes its id back.
      ASSERT_FALSE(cur.graph->tombstones().empty());
      const auto& [v, dels] = *cur.graph->tombstones().begin();
      b.insert(v, dels.front());
      revived = true;
    }
    const std::uint64_t compactions = store.stats().compactions;
    if (round == 4) {
      // Enough inserts to push the overlay past the compaction threshold.
      for (int i = 0; i < 1200; ++i) {
        const vid_t u = pick(rng);
        const vid_t v = pick(rng);
        if (u != v && !cur.graph->has_edge(u, v)) b.insert(u, v);
      }
    }
    ASSERT_TRUE(server.submit_update(b).accepted);
    if (round == 4) ASSERT_GT(store.stats().compactions, compactions);
    serve_epoch("round " + std::to_string(round));
  }
  ASSERT_TRUE(revived);

  // Both kinds read each GCD's one mirror: it counts every device run of
  // either kind, and uploads the base once at the first sync and once per
  // compaction, not once per kind.
  const std::uint64_t compactions = store.stats().compactions;
  ASSERT_GE(compactions, 1u);
  for (unsigned g = 0; g < cfg.num_gcds; ++g) {
    const dyn::DynEngineStats ms = server.mirror_stats(g);
    EXPECT_EQ(ms.runs, runs_on[g]) << "gcd " << g;
    EXPECT_EQ(ms.full_uploads, compactions + 1) << "gcd " << g;
  }

  // Under a seeded kernel-fault rate, CC degrades to the host oracle over
  // the pinned snapshot, and the answer still validates.
  sim::FaultInjector& faults = sim::FaultInjector::global();
  sim::FaultConfig fc;
  fc.kernel_fault_rate = 0.5;
  fc.seed = kSeed;
  faults.configure(fc);
  unsigned host_served = 0;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(
        server.submit_update(churn(*store.snapshot().graph, rng, 12))
            .accepted);
    const dyn::Snapshot snap = store.snapshot();
    const QueryResult r = run_cycle(server, {cq}).front();
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    ASSERT_TRUE(r.payload.components);
    EXPECT_TRUE(r.validated);
    EXPECT_EQ(*r.payload.components, graph::canonical_components(*snap.graph));
    if (r.engine == "cpu-delta-cc") {
      EXPECT_TRUE(r.degraded);
      ++host_served;
    }
  }
  faults.disable();
  EXPECT_GT(host_served, 0u);
  EXPECT_EQ(server.stats().validation_failures, 0u);
  server.shutdown();
}

}  // namespace
}  // namespace xbfs::serve
