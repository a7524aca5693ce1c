// Tests for the serial reference algorithms and — crucially — for the
// validators themselves: a validator that cannot detect corruption would
// silently bless a broken GPU traversal.
#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"

namespace xbfs::graph {
namespace {

Csr path_graph(vid_t n) {
  std::vector<Edge> e;
  for (vid_t v = 0; v + 1 < n; ++v) e.push_back({v, v + 1});
  return build_csr(n, std::move(e));
}

TEST(ReferenceBfs, PathLevelsAreDistances) {
  const Csr g = path_graph(6);
  const auto levels = reference_bfs(g, 0);
  for (vid_t v = 0; v < 6; ++v) EXPECT_EQ(levels[v], static_cast<int>(v));
  const auto mid = reference_bfs(g, 3);
  EXPECT_EQ(mid[0], 3);
  EXPECT_EQ(mid[5], 2);
}

TEST(ReferenceBfs, DisconnectedVerticesStayUnreached) {
  const Csr g = build_csr(5, {{0, 1}, {2, 3}});
  const auto levels = reference_bfs(g, 0);
  EXPECT_EQ(levels[1], 1);
  EXPECT_EQ(levels[2], kUnreached);
  EXPECT_EQ(levels[3], kUnreached);
  EXPECT_EQ(levels[4], kUnreached);
}

TEST(ReferenceBfs, SingleVertexGraph) {
  const Csr g = build_csr(1, {});
  const auto levels = reference_bfs(g, 0);
  EXPECT_EQ(levels[0], 0);
}

TEST(ReferenceBfs, StarHasDepthOne) {
  std::vector<Edge> e;
  for (vid_t v = 1; v < 100; ++v) e.push_back({0, v});
  const Csr g = build_csr(100, std::move(e));
  const auto levels = reference_bfs(g, 0);
  for (vid_t v = 1; v < 100; ++v) EXPECT_EQ(levels[v], 1);
  // From a leaf, the center is 1 and other leaves are 2.
  const auto from_leaf = reference_bfs(g, 7);
  EXPECT_EQ(from_leaf[0], 1);
  EXPECT_EQ(from_leaf[8], 2);
}

TEST(ConnectedComponents, CountsAndLabels) {
  const Csr g = build_csr(7, {{0, 1}, {1, 2}, {3, 4}});
  vid_t n_comp = 0;
  const auto comp = connected_components(g, &n_comp);
  EXPECT_EQ(n_comp, 4u);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[6]);
}

TEST(ConnectedComponents, LargestComponentVertices) {
  const Csr g = build_csr(8, {{0, 1}, {1, 2}, {2, 3}, {5, 6}});
  const auto giant = largest_component_vertices(g);
  EXPECT_EQ(giant, (std::vector<vid_t>{0, 1, 2, 3}));
}

// --- validator robustness --------------------------------------------------

TEST(ValidateLevels, AcceptsReference) {
  const Csr g = build_csr(8, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
  const auto levels = reference_bfs(g, 0);
  EXPECT_TRUE(validate_levels_graph500(g, 0, levels).empty());
}

TEST(ValidateLevels, DetectsWrongSourceLevel) {
  const Csr g = path_graph(4);
  auto levels = reference_bfs(g, 0);
  levels[0] = 1;
  EXPECT_FALSE(validate_levels_graph500(g, 0, levels).empty());
}

TEST(ValidateLevels, DetectsOffByOneLevel) {
  const Csr g = path_graph(6);
  auto levels = reference_bfs(g, 0);
  levels[4] = 5;  // should be 4: edge (3,4) now spans 2 levels
  EXPECT_FALSE(validate_levels_graph500(g, 0, levels).empty());
}

TEST(ValidateLevels, DetectsFalseReachability) {
  const Csr g = build_csr(4, {{0, 1}, {2, 3}});
  auto levels = reference_bfs(g, 0);
  levels[2] = 5;  // claims an unreachable vertex was reached
  EXPECT_FALSE(validate_levels_graph500(g, 0, levels).empty());
}

TEST(ValidateLevels, DetectsMissedVertex) {
  const Csr g = path_graph(4);
  auto levels = reference_bfs(g, 0);
  levels[3] = kUnreached;  // claims a reachable vertex was missed
  EXPECT_FALSE(validate_levels_graph500(g, 0, levels).empty());
}

TEST(ValidateLevels, DetectsLevelWithoutPredecessor) {
  // A cycle where a vertex claims level 2 but has no level-1 neighbor.
  const Csr g = build_csr(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  auto levels = reference_bfs(g, 0);
  // levels: 0,1,2,3,2,1 — corrupt vertex 3 (true 3) to 3 stays; instead
  // corrupt vertex 2 from 2 to 3: edge (1,2) spans 2 levels -> caught by
  // the span rule; to exercise the predecessor rule corrupt a diamond:
  const Csr d = build_csr(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
  auto dl = reference_bfs(d, 0);
  ASSERT_EQ(dl[3], 2);
  ASSERT_EQ(dl[4], 3);
  dl[3] = 3;  // now 4 (level 3) has no level-2 neighbor... and (1,3) spans 2
  EXPECT_FALSE(validate_levels_graph500(d, 0, dl).empty());
  (void)levels;
}

TEST(ValidateLevels, WrongSizeRejected) {
  const Csr g = path_graph(4);
  EXPECT_FALSE(validate_levels_graph500(g, 0, std::vector<std::int32_t>(3, 0))
                   .empty());
}

TEST(ValidateParents, AcceptsConsistentTree) {
  const Csr g = build_csr(5, {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  const auto levels = reference_bfs(g, 0);
  const std::vector<vid_t> parent = {0, 0, 0, 1, 2};
  EXPECT_TRUE(validate_bfs_parents(g, 0, levels, parent).empty());
}

TEST(ValidateParents, DetectsNonNeighborParent) {
  const Csr g = build_csr(5, {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  const auto levels = reference_bfs(g, 0);
  const std::vector<vid_t> parent = {0, 0, 0, 2, 2};  // 2 is not 3's neighbor
  EXPECT_FALSE(validate_bfs_parents(g, 0, levels, parent).empty());
}

TEST(ValidateParents, DetectsWrongLevelParent) {
  const Csr g = path_graph(4);
  const auto levels = reference_bfs(g, 0);
  const std::vector<vid_t> parent = {0, 0, 3, 2};  // 3 (level 3) parents 2
  EXPECT_FALSE(validate_bfs_parents(g, 0, levels, parent).empty());
}

}  // namespace
}  // namespace xbfs::graph
