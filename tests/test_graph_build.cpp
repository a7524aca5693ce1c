// Unit tests for the CSR builder, structural validation, I/O round-trips
// and the graph statistics helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>

#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "graph/rmat.h"
#include "graph/stats.h"

namespace xbfs::graph {
namespace {

// The builder as it stood before it compacted in place: a symmetrized copy
// of the edge list, an unsorted `cols`, then a second sorted and
// deduplicated copy.  It is the oracle the in-place builder must match
// byte for byte.
Csr oracle_build_csr(vid_t n, std::vector<Edge> edges, bool symmetrize) {
  std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  if (symmetrize) {
    const std::size_t orig = edges.size();
    edges.reserve(orig * 2);
    for (std::size_t i = 0; i < orig; ++i) {
      edges.push_back(Edge{edges[i].v, edges[i].u});
    }
  }
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++offsets[e.u + 1];
  for (vid_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<vid_t> cols(edges.size());
  {
    std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : edges) cols[cursor[e.u]++] = e.v;
  }
  std::vector<vid_t> out_cols;
  out_cols.reserve(cols.size());
  std::vector<eid_t> out_offsets(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0; v < n; ++v) {
    auto begin = cols.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    auto end = cols.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    std::sort(begin, end);
    end = std::unique(begin, end);
    out_cols.insert(out_cols.end(), begin, end);
    out_offsets[v + 1] = static_cast<eid_t>(out_cols.size());
  }
  return Csr(std::move(out_offsets), std::move(out_cols));
}

// A seeded edge list with self-loops, duplicates and isolated vertices:
// endpoints come from a random subset of [0, n), and a share of the edges
// repeat an earlier one or point at themselves.
std::vector<Edge> messy_edges(vid_t n, std::size_t m, std::mt19937_64& rng) {
  std::vector<vid_t> used(n);
  for (vid_t v = 0; v < n; ++v) used[v] = v;
  std::shuffle(used.begin(), used.end(), rng);
  used.resize(std::max<std::size_t>(1, n - n / 4));  // the rest stay isolated
  std::uniform_int_distribution<std::size_t> pick(0, used.size() - 1);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    const int k = kind(rng);
    if (k == 0 && !edges.empty()) {
      std::uniform_int_distribution<std::size_t> back(0, edges.size() - 1);
      edges.push_back(edges[back(rng)]);  // exact duplicate
    } else if (k == 1 && !edges.empty()) {
      std::uniform_int_distribution<std::size_t> back(0, edges.size() - 1);
      const Edge e = edges[back(rng)];
      edges.push_back(Edge{e.v, e.u});  // duplicate once symmetrized
    } else if (k == 2) {
      const vid_t v = used[pick(rng)];
      edges.push_back(Edge{v, v});  // self-loop
    } else {
      edges.push_back(Edge{used[pick(rng)], used[pick(rng)]});
    }
  }
  return edges;
}

void expect_same_csr(const Csr& got, const Csr& want) {
  EXPECT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(got.offsets(), want.offsets());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(got.validate().empty()) << got.validate();
}

// Differential guard: on seeded messy edge lists, in both orientations,
// the builder gives exactly the oracle's offsets and cols.
TEST(BuilderDifferential, MatchesTheCopyingBuilderOnRandomEdgeLists) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("replay=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const vid_t n = (seed % 10 == 0) ? 1 : 1 + static_cast<vid_t>(rng() % 200);
    const std::size_t m = (seed % 7 == 0) ? 0 : rng() % 1500;
    const std::vector<Edge> edges = messy_edges(n, m, rng);
    for (const bool sym : {true, false}) {
      SCOPED_TRACE(sym ? "symmetrize" : "directed");
      BuildOptions opt;
      opt.symmetrize = sym;
      expect_same_csr(build_csr(n, edges, opt),
                      oracle_build_csr(n, edges, sym));
    }
  }
}

TEST(BuilderDifferential, EdgeCasesMatchTheCopyingBuilder) {
  const std::vector<std::pair<vid_t, std::vector<Edge>>> cases = {
      {1, {}},
      {1, {{0, 0}, {0, 0}}},
      {5, {}},
      {5, {{3, 3}}},
      {2, {{0, 1}, {1, 0}, {0, 1}}},
      {6, {{5, 0}, {5, 0}, {0, 5}, {2, 2}}},
  };
  for (const auto& [n, edges] : cases) {
    for (const bool sym : {true, false}) {
      BuildOptions opt;
      opt.symmetrize = sym;
      expect_same_csr(build_csr(n, edges, opt),
                      oracle_build_csr(n, edges, sym));
    }
  }
}

// The five xbench inputs at seed 1 (bench/xbench/workloads_*.cpp), pinned
// to the fingerprints the copying builder gave them: R25/256 (bfs-rmat),
// UP/256 (bfs-longdiam), RMAT scale 15 (serve-zipf) and scale 14
// (churn-durable and shard-serve build the same graph).
TEST(BuilderDifferential, XbenchInputFingerprintsArePinned) {
  auto rmat = [](unsigned scale) {
    RmatParams rp;
    rp.scale = scale;
    rp.edge_factor = 16;
    rp.seed = 1;
    return rmat_csr(rp);
  };
  const Csr rmat14 = rmat(14);
  const struct {
    const char* workload;
    std::uint64_t fingerprint;
    std::uint64_t pinned;
  } inputs[] = {
      {"bfs-rmat", make_dataset(DatasetId::R25, 256, 1).fingerprint(),
       0x57fa8408c45b7640ull},
      {"bfs-longdiam", make_dataset(DatasetId::UP, 256, 1).fingerprint(),
       0x8a5be5a11007b096ull},
      {"serve-zipf", rmat(15).fingerprint(), 0xd5260a225dfd5230ull},
      {"churn-durable", rmat14.fingerprint(), 0xa9ebc6d79bf6d21dull},
      {"shard-serve", rmat14.fingerprint(), 0xa9ebc6d79bf6d21dull},
  };
  for (const auto& in : inputs) {
    EXPECT_EQ(in.fingerprint, in.pinned) << in.workload;
  }
}

TEST(Builder, SymmetrizesAndSortsNeighbors) {
  const Csr g = build_csr(4, {{0, 2}, {0, 1}, {3, 0}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 6u);  // each edge in both directions
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 3u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(n0[2], 3u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.neighbors(3)[0], 0u);
}

TEST(Builder, RemovesSelfLoopsAndDuplicates) {
  const Csr g = build_csr(3, {{0, 0}, {0, 1}, {1, 0}, {0, 1}, {2, 2}});
  // (0,0) and (2,2) dropped; (0,1) appears once per direction.
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Builder, DirectedModeKeepsOrientation) {
  BuildOptions opt;
  opt.symmetrize = false;
  const Csr g = build_csr(3, {{0, 1}, {1, 2}}, opt);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Builder, EmptyGraph) {
  const Csr g = build_csr(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(CsrValidate, AcceptsWellFormed) {
  const Csr g = build_csr(10, {{0, 1}, {1, 2}, {5, 9}});
  EXPECT_TRUE(g.validate().empty()) << g.validate();
}

TEST(CsrValidate, RejectsOutOfRangeColumn) {
  std::vector<eid_t> offsets = {0, 1};
  std::vector<vid_t> cols = {7};  // vertex 7 does not exist in a 1-vertex graph
  const Csr g(std::move(offsets), std::move(cols));
  EXPECT_FALSE(g.validate().empty());
}

TEST(Csr, PayloadBytesMatchesLayout) {
  const Csr g = build_csr(4, {{0, 1}});
  EXPECT_EQ(g.payload_bytes(), 5 * sizeof(eid_t) + 2 * sizeof(vid_t));
}

TEST(Csr, MaxDegreeAndAvgDegree) {
  const Csr g = build_csr(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 6.0 / 4.0);
}

// The epoch-mixing contract (docs/dynamic.md): equal structure at an equal
// epoch hashes equal; the same structure at a different epoch must not,
// so serve::ResultCache keys can never alias across update batches.
TEST(Csr, FingerprintEpochMixing) {
  const Csr a = build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const Csr b = build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(7), b.fingerprint(7));
  // Static callers keep their historical hash: default epoch is 0.
  EXPECT_EQ(a.fingerprint(), a.fingerprint(0));
  EXPECT_NE(a.fingerprint(0), a.fingerprint(1));
  EXPECT_NE(a.fingerprint(1), a.fingerprint(2));
  // Structure still dominates: different graphs differ at the same epoch.
  const Csr c = build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_NE(a.fingerprint(3), c.fingerprint(3));
}

// The salt-mixing contract (docs/sharding.md), the epoch contract's twin:
// the sharded tier keys its result cache on mix_fingerprint(fp, layout
// hash), so results computed under one partition layout are never served
// after a re-shard of the same graph.
TEST(Csr, FingerprintSaltMixing) {
  const Csr a = build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::uint64_t fp = a.fingerprint();
  // Mixing is deterministic and separates salts (and the unsalted key).
  EXPECT_EQ(mix_fingerprint(fp, 4), mix_fingerprint(fp, 4));
  EXPECT_NE(mix_fingerprint(fp, 4), mix_fingerprint(fp, 8));
  EXPECT_NE(mix_fingerprint(fp, 4), fp);
  // Zero is a real salt, not an identity: even salt 0 moves the key.
  EXPECT_NE(mix_fingerprint(fp, 0), fp);
  // Structure still dominates: different graphs differ under the same salt.
  const Csr c = build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_NE(mix_fingerprint(fp, 4), mix_fingerprint(c.fingerprint(), 4));
  // Salt and epoch mixing compose without aliasing each other.
  EXPECT_NE(mix_fingerprint(a.fingerprint(1), 4),
            mix_fingerprint(a.fingerprint(2), 4));
}

class IoRoundTrip : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return (std::filesystem::temp_directory_path() /
            (std::string("xbfs_io_test_") + name))
        .string();
  }
  void TearDown() override {
    for (const auto& p : created_) std::filesystem::remove(p);
  }
  std::vector<std::string> created_;
};

TEST_F(IoRoundTrip, TextEdgeList) {
  const std::string p = path("edges.txt");
  created_.push_back(p);
  const std::vector<Edge> edges = {{0, 3}, {2, 1}, {4, 4}};
  write_edge_list_text(p, edges);
  vid_t n = 0;
  const std::vector<Edge> back = read_edge_list_text(p, &n);
  EXPECT_EQ(back, edges);
  EXPECT_EQ(n, 5u);
}

TEST_F(IoRoundTrip, TextParserSkipsComments) {
  const std::string p = path("comments.txt");
  created_.push_back(p);
  {
    std::FILE* f = std::fopen(p.c_str(), "w");
    std::fputs("# SNAP-style header\n% matrix-market style\n1 2\n\n3 4\n", f);
    std::fclose(f);
  }
  const std::vector<Edge> back = read_edge_list_text(p);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], (Edge{1, 2}));
  EXPECT_EQ(back[1], (Edge{3, 4}));
}

TEST_F(IoRoundTrip, BinaryEdgeList) {
  const std::string p = path("edges.bin");
  created_.push_back(p);
  const std::vector<Edge> edges = {{10, 20}, {30, 40}, {0, 0}};
  write_edge_list_binary(p, 41, edges);
  vid_t n = 0;
  EXPECT_EQ(read_edge_list_binary(p, &n), edges);
  EXPECT_EQ(n, 41u);
}

TEST_F(IoRoundTrip, CsrBinary) {
  const std::string p = path("graph.csr");
  created_.push_back(p);
  const Csr g = build_csr(6, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  write_csr_binary(p, g);
  const Csr back = read_csr_binary(p);
  EXPECT_EQ(back.offsets(), g.offsets());
  EXPECT_EQ(back.cols(), g.cols());
}

TEST_F(IoRoundTrip, BadMagicIsRejected) {
  const std::string p = path("bad.bin");
  created_.push_back(p);
  {
    std::FILE* f = std::fopen(p.c_str(), "wb");
    const char junk[32] = "not a graph";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(read_edge_list_binary(p), std::runtime_error);
  EXPECT_THROW(read_csr_binary(p), std::runtime_error);
}

TEST_F(IoRoundTrip, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_text("/nonexistent/nowhere.txt"),
               std::runtime_error);
}

TEST(Stats, DegreeStatsOnStar) {
  // Star: center degree n-1, leaves degree 1.
  std::vector<Edge> edges;
  for (vid_t v = 1; v < 10; ++v) edges.push_back({0, v});
  const Csr g = build_csr(10, std::move(edges));
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.max_degree, 9u);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 18.0 / 10.0);
  EXPECT_EQ(s.isolated, 0u);
}

TEST(Stats, FrontierRatioSumsToReachedFraction) {
  const Csr g = build_csr(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});  // path + iso
  const std::vector<double> r = frontier_edge_ratio(g, 0);
  double total = 0;
  for (double x : r) total += x;
  // Path of 5 vertices: all 8 directed entries belong to reached vertices.
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_EQ(r.size(), 5u);  // levels 0..4
}

TEST(Stats, FrontierSizesMatchPathStructure) {
  const Csr g = build_csr(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto sizes = frontier_sizes(g, 0);
  ASSERT_EQ(sizes.size(), 4u);
  for (const auto s : sizes) EXPECT_EQ(s, 1u);
}

TEST(Stats, BoxSummaryQuartiles) {
  BoxSummary b = box_summary({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(b.min, 1);
  EXPECT_DOUBLE_EQ(b.median, 3);
  EXPECT_DOUBLE_EQ(b.max, 5);
  EXPECT_DOUBLE_EQ(b.q1, 2);
  EXPECT_DOUBLE_EQ(b.q3, 4);
  EXPECT_EQ(b.count, 5u);
  EXPECT_EQ(box_summary({}).count, 0u);
}

}  // namespace
}  // namespace xbfs::graph
