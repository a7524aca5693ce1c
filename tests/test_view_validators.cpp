// One validator per kind over either graph: graph::validate_levels_graph500
// and graph::validate_components take a Csr or a dyn::DeltaCsr through the
// shared neighbor view.  On seeded churned snapshots they accept the
// reference answers and reject every single-entry level corruption and a
// merge of two component labels; a dynamic Server validates the CC
// payloads IncrementalCc repairs.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <random>
#include <string>
#include <vector>

#include "dyn/delta_ref.h"
#include "dyn/graph_store.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "serve/server.h"

namespace xbfs {
namespace {

using graph::vid_t;

graph::Csr rmat_graph(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 4;
  p.seed = seed;
  return graph::rmat_csr(p);
}

/// `ops` seeded updates: each deletes a random live edge or inserts a
/// random absent pair.
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

class ViewValidators : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewValidators, AcceptReferenceRejectSingleCorruptionsAndMerges) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("replay=" + std::to_string(seed));
  core::XbfsConfig cfg;
  cfg.dyn_compact_threshold = 1e9;  // keep tombstones and overlay live
  dyn::GraphStore store(rmat_graph(7, seed), cfg);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 4; ++i) {
    store.apply(churn(*store.snapshot().graph, rng, 24));
  }
  const dyn::Snapshot snap = store.snapshot();
  const dyn::DeltaCsr& g = *snap.graph;
  ASSERT_GT(g.tombstone_entries(), 0u);
  ASSERT_GT(g.extra_entries(), 0u);
  const graph::Csr flat = g.materialize();
  const vid_t n = g.num_vertices();

  // Levels: the reference is accepted over both graphs; every other value
  // in any single entry is rejected by both.
  for (const vid_t src : {vid_t{0}, n / 3, n - 1}) {
    const std::vector<std::int32_t> ref = dyn::reference_bfs(g, src);
    ASSERT_EQ(ref, graph::reference_bfs(flat, src));
    EXPECT_EQ(graph::validate_levels_graph500(g, src, ref), "");
    EXPECT_EQ(graph::validate_levels_graph500(flat, src, ref), "");
    const std::int32_t depth = *std::max_element(ref.begin(), ref.end());
    for (vid_t v = 0; v < n; ++v) {
      std::vector<std::int32_t> bad = ref;
      for (std::int32_t l = -1; l <= depth + 1; ++l) {
        if (l == ref[v]) continue;
        bad[v] = l;
        EXPECT_NE(graph::validate_levels_graph500(g, src, bad), "")
            << "src " << src << " vertex " << v << " level " << l;
        EXPECT_NE(graph::validate_levels_graph500(flat, src, bad), "")
            << "src " << src << " vertex " << v << " level " << l;
      }
      bad[v] = static_cast<std::int32_t>(n);
      EXPECT_NE(graph::validate_levels_graph500(g, src, bad), "");
    }
  }

  // Components: the oracle agrees across graphs, canonical labels are
  // accepted, and merging two labels is rejected.
  vid_t n_comp = 0;
  EXPECT_EQ(graph::connected_components(g, &n_comp),
            graph::connected_components(flat, nullptr));
  ASSERT_GE(n_comp, 2u);
  const std::vector<vid_t> labels = graph::canonical_components(flat);
  EXPECT_EQ(graph::validate_components(g, labels), "");
  EXPECT_EQ(graph::validate_components(flat, labels), "");
  const vid_t keep = labels[0];
  vid_t other = keep;
  for (const vid_t l : labels) {
    if (l != keep) {
      other = l;
      break;
    }
  }
  ASSERT_NE(other, keep);
  std::vector<vid_t> merged = labels;
  for (vid_t& l : merged) {
    if (l == other) l = keep;
  }
  EXPECT_NE(graph::validate_components(g, merged), "");
  EXPECT_NE(graph::validate_components(flat, merged), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewValidators,
                         ::testing::Values(1u, 2u, 3u));

serve::QueryResult run_query(serve::Server& server, core::AlgoQuery q) {
  serve::Admission a = server.submit(q);
  EXPECT_TRUE(a.accepted) << a.status.to_string();
  if (!a.accepted) return {};
  while (server.dispatch_once() == 0 &&
         a.result.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
  }
  return a.result.get();
}

TEST(DynServingValidation, DynamicServerValidatesCcPayloads) {
  dyn::GraphStore store(rmat_graph(8, 11));
  serve::ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  cfg.xbfs.report_runs = false;
  cfg.validate_results = serve::ValidateResults::Always;
  cfg.algos = {core::AlgoKind::Bfs, core::AlgoKind::Cc};
  serve::Server server(store, cfg);

  std::mt19937_64 rng(5);
  core::AlgoQuery bq;
  bq.algo = core::AlgoKind::Bfs;
  core::AlgoQuery cq;
  cq.algo = core::AlgoKind::Cc;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(
        server.submit_update(churn(*store.snapshot().graph, rng, 8)).accepted);
    for (const core::AlgoQuery& q : {bq, cq}) {
      const serve::QueryResult r = run_query(server, q);
      ASSERT_EQ(r.status, serve::QueryStatus::Completed)
          << r.error.to_string();
      EXPECT_FALSE(r.cache_hit);
    }
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.validated_results, 2u * kRounds);
  EXPECT_EQ(st.validation_failures, 0u);
  server.shutdown();
}

}  // namespace
}  // namespace xbfs
