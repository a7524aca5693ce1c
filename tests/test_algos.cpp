// Tests for the downstream-algorithm library: concurrent multi-source BFS,
// betweenness centrality and SCC detection — each validated against a
// serial host reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <type_traits>

#include "algos/bc.h"
#include "algos/cc_engine.h"
#include "algos/kcore_engine.h"
#include "algos/multi_bfs.h"
#include "algos/scc.h"
#include "algos/sssp_engine.h"
#include "baseline/async_sssp.h"
#include "baseline/gunrock_like.h"
#include "baseline/hier_queue.h"
#include "baseline/simple_scan.h"
#include "graph/builder.h"
#include "graph/device_csr.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/rmat.h"

namespace xbfs::algos {
namespace {

sim::Device make_device() {
  return sim::Device(sim::DeviceProfile::mi250x_gcd(),
                     sim::SimOptions{.num_workers = 2});
}

graph::Csr undirected_rmat(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::rmat_csr(p);
}

// --- launch protocols ---------------------------------------------------------

/// FNV-1a accumulator for the protocol hashes below.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (x & 0xff)) * 0x100000001b3ull;
      x >>= 8;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  template <class T>
  void mix_all(const std::vector<T>& xs) {
    for (const T x : xs) {
      if constexpr (std::is_floating_point_v<T>) {
        mix_double(x);
      } else {
        mix(static_cast<std::uint64_t>(x));
      }
    }
  }
};

/// Mix every profiler row of `dev`: its kernel name, loads, stores, bytes,
/// fetches, atomics, issued and active slots and modelled microseconds.
/// One worker makes every modelled time bit-exact, so a change to a
/// kernel's launch geometry or loads moves the hash.
void mix_launch_rows(Fnv& f, sim::Device& dev) {
  for (const sim::LaunchRecord& rec : dev.profiler().records()) {
    for (const char c : rec.kernel) f.mix(static_cast<unsigned char>(c));
    const sim::KernelCounters& k = rec.counters;
    for (const std::uint64_t x :
         {k.mem_reads, k.mem_writes, k.bytes_read, k.bytes_written,
          k.fetch_bytes, k.atomics, k.lane_slots, k.active_lanes}) {
      f.mix(x);
    }
    f.mix_double(rec.timing.total_us);
  }
}

/// lp-cc's whole device protocol on a flat graph: the launch rows, then
/// the rounds, depth, hook count and labels.
std::uint64_t lp_cc_protocol_hash(const graph::Csr& g) {
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 1});
  const graph::DeviceCsr dg = graph::DeviceCsr::upload(dev, g);
  LpCcEngine eng(dev, dg);
  dev.profiler().clear();
  const core::AlgoResult r = eng.solve({});
  EXPECT_EQ(*r.payload.components, graph::canonical_components(g));

  Fnv f;
  mix_launch_rows(f, dev);
  f.mix(r.level_stats.size());
  f.mix(r.payload.depth);
  f.mix(r.work_items);
  f.mix_all(*r.payload.components);
  return f.h;
}

TEST(LpCcProtocol, FlatGraphLaunchRowsMatchPinnedHash) {
  std::vector<graph::Edge> chain, star;
  for (graph::vid_t v = 0; v + 1 < 150; ++v) chain.push_back({v, v + 1});
  for (graph::vid_t v = 1; v < 500; ++v) star.push_back({0, v});
  const struct {
    const char* name;
    graph::Csr g;
    std::uint64_t pinned;
  } cases[] = {
      {"rmat", undirected_rmat(9, 7), 0x915013103663a8d7ull},
      {"chain", graph::build_csr(150, std::move(chain)),
       0xcf058e23f2c9b18eull},
      {"star", graph::build_csr(500, std::move(star)), 0x55e93376a4d0eec1ull},
  };
  for (const auto& c : cases) {
    const std::uint64_t h = lp_cc_protocol_hash(c.g);
    std::printf("[ LpCcProtocol ] %s protocol_hash=%016llx\n", c.name,
                static_cast<unsigned long long>(h));
    EXPECT_EQ(h, c.pinned) << c.name;
  }
}

/// Every device engine and baseline that launches at the fixed block
/// size, run once on a one-worker device: what it computed, its modelled
/// total and its launch rows.  A change to any of their launch geometries
/// moves its hash.
TEST(EngineProtocol, LaunchRowsMatchPinnedHash) {
  const graph::Csr g = undirected_rmat(9, 7);
  const graph::vid_t src = graph::largest_component_vertices(g).front();
  std::mt19937_64 rng(5);
  std::vector<graph::Edge> arcs;
  for (unsigned i = 0; i < 900; ++i) {
    arcs.push_back({static_cast<graph::vid_t>(rng() % 300),
                    static_cast<graph::vid_t>(rng() % 300)});
  }
  graph::BuildOptions directed;
  directed.symmetrize = false;
  const graph::Csr arcs_g = graph::build_csr(300, std::move(arcs), directed);

  const auto mix_bfs = [](Fnv& f, const core::BfsResult& r) {
    f.mix_all(r.levels);
    f.mix(r.level_stats.size());
    f.mix_double(r.total_ms);
  };
  const auto mix_algo = [](Fnv& f, const core::AlgoResult& r) {
    const core::ResultPayload& p = r.payload;
    if (p.distances) f.mix_all(*p.distances);
    if (p.cores) f.mix_all(*p.cores);
    if (p.scores) f.mix_all(*p.scores);
    if (p.components) f.mix_all(*p.components);
    f.mix(p.depth);
    f.mix(r.work_items);
    f.mix_double(r.total_ms);
  };
  const struct {
    const char* name;
    std::uint64_t pinned;
    std::function<void(sim::Device&, const graph::DeviceCsr&, Fnv&)> run;
  } cases[] = {
      {"delta-sssp", 0x84c6e60b94cb3229ull,
       [&](sim::Device& dev, const graph::DeviceCsr& dg, Fnv& f) {
         DeltaSsspEngine eng(dev, dg);
         dev.profiler().clear();
         mix_algo(f, eng.solve({.algo = core::AlgoKind::Sssp, .source = src}));
       }},
      {"kcore-pull", 0x2c89482c5d1be1dfull,
       [&](sim::Device& dev, const graph::DeviceCsr& dg, Fnv& f) {
         KCorePullEngine eng(dev, dg);
         dev.profiler().clear();
         mix_algo(f, eng.solve({.algo = core::AlgoKind::KCore}));
       }},
      {"brandes-bc", 0xe8534c756a5a0df5ull,
       [&](sim::Device& dev, const graph::DeviceCsr& dg, Fnv& f) {
         dev.profiler().clear();
         const BcResult r = betweenness_centrality(dev, dg, {src, 3, 77});
         f.mix_all(r.centrality);
         f.mix_double(r.total_ms);
       }},
      {"multi-bfs", 0xc02af91ba9c3c2d1ull,
       [&](sim::Device& dev, const graph::DeviceCsr& dg, Fnv& f) {
         dev.profiler().clear();
         const MultiBfsResult r = multi_source_bfs(dev, dg, {src, 3, 77});
         for (const auto& l : r.levels) f.mix_all(l);
         f.mix(r.depth);
         f.mix_double(r.total_ms);
       }},
      {"fwbw-scc", 0x5d667466ea3230afull,
       [&](sim::Device& dev, const graph::DeviceCsr&, Fnv& f) {
         const auto fwd = graph::DeviceCsr::upload(dev, arcs_g);
         const auto bwd =
             graph::DeviceCsr::upload(dev, graph::reverse_csr(arcs_g));
         dev.profiler().clear();
         const SccResult r = scc_fw_bw(dev, fwd, bwd);
         f.mix_all(r.component);
         f.mix(r.num_components);
         f.mix(r.fwbw_rounds);
         f.mix(r.trimmed);
         f.mix_double(r.total_ms);
       }},
      {"simple-scan", 0xf9371c6576f4577aull,
       [&](sim::Device& dev, const graph::DeviceCsr& dg, Fnv& f) {
         baseline::SimpleScanBfs eng(dev, dg);
         dev.profiler().clear();
         mix_bfs(f, eng.run(src));
       }},
      {"gunrock-like", 0x9ac4609e2d48afbbull,
       [&](sim::Device& dev, const graph::DeviceCsr& dg, Fnv& f) {
         baseline::GunrockLikeBfs eng(dev, dg);
         dev.profiler().clear();
         mix_bfs(f, eng.run(src));
       }},
      {"hier-queue", 0x322349c05329f01cull,
       [&](sim::Device& dev, const graph::DeviceCsr& dg, Fnv& f) {
         baseline::HierQueueBfs eng(dev, dg);
         dev.profiler().clear();
         mix_bfs(f, eng.run(src));
       }},
      {"async-sssp", 0xbac09189e7d96092ull,
       [&](sim::Device& dev, const graph::DeviceCsr& dg, Fnv& f) {
         baseline::AsyncSsspBfs eng(dev, dg);
         dev.profiler().clear();
         mix_bfs(f, eng.run(src));
       }},
  };
  for (const auto& c : cases) {
    sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                    sim::SimOptions{.num_workers = 1});
    const graph::DeviceCsr dg = graph::DeviceCsr::upload(dev, g);
    Fnv f;
    c.run(dev, dg, f);
    mix_launch_rows(f, dev);
    std::printf("[ EngineProtocol ] %s protocol_hash=%016llx\n", c.name,
                static_cast<unsigned long long>(f.h));
    EXPECT_EQ(f.h, c.pinned) << c.name;
  }
}

// --- multi-source BFS -------------------------------------------------------

TEST(MultiBfs, MatchesPerSourceReference) {
  const graph::Csr g = undirected_rmat(10, 3);
  sim::Device dev = make_device();
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  const auto giant = graph::largest_component_vertices(g);
  std::vector<graph::vid_t> sources;
  for (std::size_t i = 0; i < 8; ++i) {
    sources.push_back(giant[i * giant.size() / 8]);
  }
  const MultiBfsResult r = multi_source_bfs(dev, dg, sources);
  ASSERT_EQ(r.levels.size(), sources.size());
  for (std::size_t si = 0; si < sources.size(); ++si) {
    const auto ref = graph::reference_bfs(g, sources[si]);
    ASSERT_EQ(r.levels[si], ref) << "source " << sources[si];
  }
  EXPECT_GT(r.total_ms, 0.0);
}

TEST(MultiBfs, SingleSourceDegenerate) {
  const graph::Csr g = undirected_rmat(9, 4);
  sim::Device dev = make_device();
  auto dg = graph::DeviceCsr::upload(dev, g);
  const auto giant = graph::largest_component_vertices(g);
  const MultiBfsResult r = multi_source_bfs(dev, dg, {giant[0]});
  EXPECT_EQ(r.levels[0], graph::reference_bfs(g, giant[0]));
}

TEST(MultiBfs, SixtyFourSourcesAreAccepted) {
  const graph::Csr g = undirected_rmat(9, 5);
  sim::Device dev = make_device();
  auto dg = graph::DeviceCsr::upload(dev, g);
  const auto giant = graph::largest_component_vertices(g);
  std::vector<graph::vid_t> sources;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 64; ++i) {
    sources.push_back(giant[rng() % giant.size()]);
  }
  const MultiBfsResult r = multi_source_bfs(dev, dg, sources);
  // Spot-check a handful against the reference.
  for (std::size_t si : {0ul, 13ul, 63ul}) {
    EXPECT_EQ(r.levels[si], graph::reference_bfs(g, sources[si]));
  }
}

TEST(MultiBfs, GroupSourcesIsAPermutationOfDistinctSources) {
  const graph::Csr g = undirected_rmat(10, 9);
  const auto giant = graph::largest_component_vertices(g);
  std::vector<graph::vid_t> sources;
  for (std::size_t i = 0; i < 24; ++i) {
    sources.push_back(giant[(i * 997) % giant.size()]);
  }
  // group_sources deduplicates, so compare against the distinct set.
  auto distinct = sources;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const auto grouped = group_sources(g, sources, 8);
  ASSERT_EQ(grouped.size(), distinct.size());
  auto b = grouped;
  std::sort(b.begin(), b.end());
  EXPECT_EQ(b, distinct);
}

TEST(MultiBfs, GroupSourcesClustersNeighborhoods) {
  // Two far-apart cliques; mixed sources must be regrouped clique-first.
  std::vector<graph::Edge> e;
  for (graph::vid_t u = 0; u < 8; ++u) {
    for (graph::vid_t v = u + 1; v < 8; ++v) e.push_back({u, v});
  }
  for (graph::vid_t u = 100; u < 108; ++u) {
    for (graph::vid_t v = u + 1; v < 108; ++v) e.push_back({u, v});
  }
  e.push_back({7, 100});  // thin bridge
  const graph::Csr g = graph::build_csr(108, std::move(e));
  // Interleave sources from both cliques.
  const std::vector<graph::vid_t> mixed = {0, 101, 1, 102, 2, 103, 3, 104};
  const auto grouped = group_sources(g, mixed, 4);
  // The first group of four must be from one clique only.
  const bool first_low = grouped[0] < 50;
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(grouped[i] < 50, first_low) << i;
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_NE(grouped[i] < 50, first_low) << i;
  }
}

TEST(MultiBfs, RejectsBadSourceCounts) {
  const graph::Csr g = undirected_rmat(8, 6);
  sim::Device dev = make_device();
  auto dg = graph::DeviceCsr::upload(dev, g);
  EXPECT_THROW(multi_source_bfs(dev, dg, {}), std::invalid_argument);
  std::vector<graph::vid_t> too_many(65, 0);
  EXPECT_THROW(multi_source_bfs(dev, dg, too_many), std::invalid_argument);
}

TEST(MultiBfs, SharedTraversalBeatsSequentialRuns) {
  // The iBFS pitch: one shared sweep is cheaper than 16 separate BFS.
  const graph::Csr g = undirected_rmat(12, 7);
  sim::Device dev = make_device();
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  const auto giant = graph::largest_component_vertices(g);
  std::vector<graph::vid_t> sources;
  for (int i = 0; i < 16; ++i) {
    sources.push_back(giant[i * giant.size() / 16]);
  }
  const MultiBfsResult shared = multi_source_bfs(dev, dg, sources);
  double sequential_ms = 0;
  for (graph::vid_t src : sources) {
    sequential_ms += multi_source_bfs(dev, dg, {src}).total_ms;
  }
  EXPECT_LT(shared.total_ms, sequential_ms);
}

// --- betweenness centrality -------------------------------------------------

TEST(Betweenness, MatchesReferenceOnPath) {
  // Path 0-1-2-3-4: exact BC is well known.
  const graph::Csr g = graph::build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  std::vector<graph::vid_t> all = {0, 1, 2, 3, 4};
  sim::Device dev = make_device();
  auto dg = graph::DeviceCsr::upload(dev, g);
  const BcResult r = betweenness_centrality(dev, dg, all);
  const auto ref = betweenness_reference(g, all);
  for (graph::vid_t v = 0; v < 5; ++v) {
    EXPECT_NEAR(r.centrality[v], ref[v], 1e-9) << v;
  }
  // Middle vertex carries the most shortest paths.
  EXPECT_GT(r.centrality[2], r.centrality[1]);
  EXPECT_GT(r.centrality[1], r.centrality[0]);
}

TEST(Betweenness, StarCenterDominates) {
  std::vector<graph::Edge> e;
  for (graph::vid_t v = 1; v < 30; ++v) e.push_back({0, v});
  const graph::Csr g = graph::build_csr(30, std::move(e));
  std::vector<graph::vid_t> all(30);
  for (graph::vid_t v = 0; v < 30; ++v) all[v] = v;
  sim::Device dev = make_device();
  auto dg = graph::DeviceCsr::upload(dev, g);
  const BcResult r = betweenness_centrality(dev, dg, all);
  for (graph::vid_t v = 1; v < 30; ++v) {
    EXPECT_NEAR(r.centrality[v], 0.0, 1e-12);
  }
  // Center: 29*28 ordered pairs route through it.
  EXPECT_NEAR(r.centrality[0], 29.0 * 28.0, 1e-9);
}

TEST(Betweenness, MatchesReferenceOnRmatSample) {
  const graph::Csr g = undirected_rmat(9, 8);
  const auto giant = graph::largest_component_vertices(g);
  std::vector<graph::vid_t> sources;
  for (int i = 0; i < 6; ++i) sources.push_back(giant[i * 31 % giant.size()]);
  sim::Device dev = make_device();
  auto dg = graph::DeviceCsr::upload(dev, g);
  const BcResult r = betweenness_centrality(dev, dg, sources);
  const auto ref = betweenness_reference(g, sources);
  double max_err = 0, max_val = 0;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    max_err = std::max(max_err, std::abs(r.centrality[v] - ref[v]));
    max_val = std::max(max_val, ref[v]);
  }
  EXPECT_LT(max_err, 1e-6 * std::max(1.0, max_val));
}

// --- SCC ---------------------------------------------------------------------

graph::Csr directed_from(std::vector<graph::Edge> edges, graph::vid_t n) {
  graph::BuildOptions opt;
  opt.symmetrize = false;
  return graph::build_csr(n, std::move(edges), opt);
}

SccResult run_scc(const graph::Csr& g) {
  sim::Device dev = make_device();
  auto fwd = graph::DeviceCsr::upload(dev, g);
  const graph::Csr rg = graph::reverse_csr(g);
  auto bwd = graph::DeviceCsr::upload(dev, rg);
  return scc_fw_bw(dev, fwd, bwd);
}

TEST(Scc, HandCraftedComponents) {
  // Two 3-cycles joined by a one-way bridge, plus a tail vertex.
  const graph::Csr g = directed_from(
      {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}, {5, 6}}, 7);
  const SccResult r = run_scc(g);
  graph::vid_t ref_count = 0;
  const auto ref = scc_reference(g, &ref_count);
  EXPECT_EQ(ref_count, 3u);  // {0,1,2}, {3,4,5}, {6}
  EXPECT_TRUE(same_partition(r.component, ref));
  EXPECT_EQ(r.num_components, ref_count);
}

TEST(Scc, DagIsAllSingletons) {
  const graph::Csr g =
      directed_from({{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}, 5);
  const SccResult r = run_scc(g);
  EXPECT_EQ(r.num_components, 5u);
  EXPECT_GT(r.trimmed, 0u);  // trim-1 should eat the whole DAG
  graph::vid_t ref_count = 0;
  const auto ref = scc_reference(g, &ref_count);
  EXPECT_TRUE(same_partition(r.component, ref));
}

TEST(Scc, SingleBigCycle) {
  std::vector<graph::Edge> e;
  for (graph::vid_t v = 0; v < 50; ++v) e.push_back({v, (v + 1) % 50});
  const graph::Csr g = directed_from(std::move(e), 50);
  const SccResult r = run_scc(g);
  EXPECT_EQ(r.num_components, 1u);
  for (graph::vid_t v = 1; v < 50; ++v) {
    EXPECT_EQ(r.component[v], r.component[0]);
  }
}

TEST(Scc, RandomDirectedGraphsMatchTarjan) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::vid_t n = 200 + trial * 100;
    std::vector<graph::Edge> edges;
    const unsigned m = n * 3;
    for (unsigned i = 0; i < m; ++i) {
      edges.push_back({static_cast<graph::vid_t>(rng() % n),
                       static_cast<graph::vid_t>(rng() % n)});
    }
    const graph::Csr g = directed_from(std::move(edges), n);
    const SccResult r = run_scc(g);
    graph::vid_t ref_count = 0;
    const auto ref = scc_reference(g, &ref_count);
    ASSERT_EQ(r.num_components, ref_count) << "trial " << trial;
    ASSERT_TRUE(same_partition(r.component, ref)) << "trial " << trial;
  }
}

TEST(Scc, ReferencePartitionChecker) {
  EXPECT_TRUE(same_partition({0, 0, 1}, {5, 5, 9}));
  EXPECT_FALSE(same_partition({0, 0, 1}, {5, 9, 9}));
  EXPECT_FALSE(same_partition({0, 1}, {0, 0}));
  EXPECT_FALSE(same_partition({0}, {0, 0}));
}

}  // namespace
}  // namespace xbfs::algos
