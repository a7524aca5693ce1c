// The per-level host protocol of core::Xbfs: one setup launch per run, one
// synchronize() plus one counter readback per level, and per-level frontier
// totals that stay exact when one instance runs source after source on its
// two alternating counter sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "core/xbfs.h"
#include "graph/builder.h"
#include "graph/device_csr.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/rmat.h"

namespace xbfs {
namespace {

using graph::vid_t;

constexpr std::uint64_t kSeed = 7;

graph::Csr rmat_graph(unsigned scale, unsigned edge_factor) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = kSeed;
  return graph::rmat_csr(p);
}

graph::Csr citation_graph() {
  return graph::layered_citation(3000, 60, 3, kSeed);
}

sim::Device make_device(unsigned workers) {
  return sim::Device(sim::DeviceProfile::mi250x_gcd(),
                     sim::SimOptions{.num_workers = workers});
}

/// Kernels a level's strategy launches, NFG and append excluded.
unsigned strategy_kernels(const core::LevelStats& st) {
  switch (st.strategy) {
    case core::Strategy::ScanFree:
      return 1;
    case core::Strategy::SingleScan:
      return st.skipped_generation ? 1 : 2;
    case core::Strategy::BottomUp:
      return 5;
  }
  return 0;
}

struct FixedCostCase {
  const char* name;
  graph::Csr g;
};

std::vector<FixedCostCase> fixed_cost_cases() {
  std::vector<FixedCostCase> out;
  out.push_back({"rmat", rmat_graph(12, 16)});
  out.push_back({"citation", citation_graph()});
  return out;
}

TEST(XbfsFixedCost, OneInitLaunchAndOnlyStrategyKernelsPerLevel) {
  bool saw_scanfree = false, saw_generate = false, saw_nfg = false,
       saw_bottomup = false;
  for (const FixedCostCase& c : fixed_cost_cases()) {
    SCOPED_TRACE(c.name);
    sim::Device dev = make_device(1);
    auto dg = graph::DeviceCsr::upload(dev, c.g);
    core::Xbfs bfs(dev, dg);
    const vid_t src = graph::largest_component_vertices(c.g).front();
    dev.profiler().clear();
    const core::BfsResult r = bfs.run(src);

    std::map<int, unsigned> strategy_launches, appends;
    unsigned inits = 0;
    for (const sim::LaunchRecord& rec : dev.profiler().records()) {
      EXPECT_EQ(rec.kernel.find("reset"), std::string::npos) << rec.kernel;
      if (rec.kernel == "xbfs_init") {
        EXPECT_EQ(rec.level, -1);
        ++inits;
      } else if (rec.kernel == "xbfs_append_pending") {
        ++appends[rec.level];
      } else {
        ++strategy_launches[rec.level];
      }
    }
    EXPECT_EQ(inits, 1u);
    EXPECT_EQ(strategy_launches.count(-1), 0u) << "setup is one launch";
    ASSERT_EQ(r.level_stats.size(), r.depth);
    for (const core::LevelStats& st : r.level_stats) {
      const int l = static_cast<int>(st.level);
      EXPECT_EQ(strategy_launches[l], strategy_kernels(st)) << "level " << l;
      EXPECT_LE(appends[l], 1u) << "level " << l;
      saw_scanfree |= st.strategy == core::Strategy::ScanFree;
      saw_bottomup |= st.strategy == core::Strategy::BottomUp;
      if (st.strategy == core::Strategy::SingleScan) {
        (st.skipped_generation ? saw_nfg : saw_generate) = true;
      }
    }
  }
  // The two graphs between them exercise every per-level kernel sequence.
  EXPECT_TRUE(saw_scanfree);
  EXPECT_TRUE(saw_generate);
  EXPECT_TRUE(saw_nfg);
  EXPECT_TRUE(saw_bottomup);
}

TEST(XbfsFixedCost, OneCounterReadbackPerLevel) {
  for (const FixedCostCase& c : fixed_cost_cases()) {
    for (const bool parents : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (parents ? " parents" : ""));
      sim::Device dev = make_device(1);
      auto dg = graph::DeviceCsr::upload(dev, c.g);
      core::XbfsConfig cfg;
      cfg.build_parents = parents;
      core::Xbfs bfs(dev, dg, cfg);
      const vid_t src = graph::largest_component_vertices(c.g).front();
      sim::AttributionSink sink;
      core::BfsResult r;
      {
        sim::ScopedAttribution attr(dev, sink);
        r = bfs.run(src);
      }
      // One counter readback per level, then status (and parent).
      EXPECT_EQ(sink.memcpys, r.depth + 1u + (parents ? 1u : 0u));
    }
  }
}

// ---------------------------------------------------------------------------
// Per-level totals across reused runs.

struct GraphCase {
  const char* name;
  graph::Csr (*make)();
};

graph::Csr star_graph() {
  std::vector<graph::Edge> e;
  for (vid_t v = 1; v < 500; ++v) e.push_back({0, v});
  return graph::build_csr(500, std::move(e));
}

graph::Csr chain_graph() {  // 150 levels from an end, > 64
  std::vector<graph::Edge> e;
  for (vid_t v = 0; v + 1 < 150; ++v) e.push_back({v, v + 1});
  return graph::build_csr(150, std::move(e));
}

const GraphCase kGraphs[] = {
    {"rmat", [] { return rmat_graph(11, 8); }},
    {"citation", citation_graph},
    {"star", star_graph},
    {"chain", chain_graph},
    {"ragged", [] { return graph::erdos_renyi(997, 3000, kSeed); }},
};

struct ConfigCase {
  const char* name;
  core::XbfsConfig cfg;
};

std::vector<ConfigCase> config_cases() {
  std::vector<ConfigCase> out;
  out.push_back({"default", {}});
  core::XbfsConfig c;
  c.bottomup_bitmap = true;
  out.push_back({"bitmap", c});
  c = {};
  c.build_parents = true;
  out.push_back({"parents", c});
  c = {};
  c.stream_mode = core::StreamMode::TripleBinned;
  out.push_back({"triple_binned", c});
  c = {};
  c.forced_strategy = static_cast<int>(core::Strategy::SingleScan);
  out.push_back({"forced_single_scan", c});
  c = {};
  c.alpha = 0.005;
  out.push_back({"alpha_0p005", c});
  c = {};
  c.enable_lookahead = false;
  out.push_back({"no_lookahead", c});
  c = {};
  c.enable_nfg = false;
  out.push_back({"no_nfg", c});
  return out;
}

/// Depth of a reference labelling: levels 0..max.
std::uint32_t ref_depth(const std::vector<std::int32_t>& ref) {
  return static_cast<std::uint32_t>(*std::max_element(ref.begin(), ref.end()) +
                                    1);
}

using TotalsParam = std::tuple<std::size_t /*graph*/, std::size_t /*cfg*/,
                               unsigned /*workers*/>;

class XbfsLevelTotals : public ::testing::TestWithParam<TotalsParam> {};

TEST_P(XbfsLevelTotals, ReusedRunsKeepExactLevelTotals) {
  const auto [gi, ci, workers] = GetParam();
  const GraphCase& gc = kGraphs[gi];
  const ConfigCase cc = config_cases()[ci];
  const graph::Csr g = gc.make();
  const auto giant = graph::largest_component_vertices(g);
  ASSERT_FALSE(giant.empty());

  // The first source has odd depth: its last level uses counter set 0, the
  // set the next run starts on.
  vid_t first = giant.front();
  for (vid_t v : giant) {
    if (ref_depth(graph::reference_bfs(g, v)) % 2 == 1) {
      first = v;
      break;
    }
  }
  const vid_t sources[3] = {first, giant[giant.size() / 2], giant.back()};

  sim::Device dev = make_device(workers);
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg, cc.cfg);
  for (int i = 0; i < 3; ++i) {
    const vid_t src = sources[i];
    std::ostringstream where;
    where << "graph=" << gc.name << " cfg=" << cc.name << " seed=" << kSeed
          << " workers=" << workers << " run=" << i << " src=" << src;
    SCOPED_TRACE(where.str());
    const auto ref = graph::reference_bfs(g, src);
    const core::BfsResult r = bfs.run(src);
    ASSERT_EQ(r.levels, ref);
    if (i == 0) ASSERT_EQ(r.depth % 2, 1u);
    if (cc.cfg.build_parents) {
      ASSERT_EQ(graph::validate_bfs_parents(g, src, r.levels, r.parent), "");
    }
    if (workers != 1) continue;  // racy claims make the totals bounds only

    const std::uint32_t depth = ref_depth(ref);
    ASSERT_EQ(r.depth, depth);
    std::vector<std::uint64_t> count(depth, 0), edges(depth, 0);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (ref[v] < 0) continue;
      ++count[ref[v]];
      edges[ref[v]] += g.degree(v);
    }
    for (std::uint32_t l = 0; l < depth; ++l) {
      EXPECT_EQ(r.level_stats[l].frontier_count, count[l]) << "level " << l;
      EXPECT_EQ(r.level_stats[l].frontier_edges, edges[l]) << "level " << l;
    }
  }
}

std::string totals_name(const ::testing::TestParamInfo<TotalsParam>& info) {
  const auto [gi, ci, workers] = info.param;
  return std::string(kGraphs[gi].name) + "_" + config_cases()[ci].name +
         "_w" + std::to_string(workers);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, XbfsLevelTotals,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kGraphs)),
                       ::testing::Range<std::size_t>(0, config_cases().size()),
                       ::testing::Values(1u, 4u)),
    totals_name);

}  // namespace
}  // namespace xbfs
