// The host protocol of core::Xbfs.  In the default stream mode a traversal
// is one cooperative launch, one synchronize() and one copy (the level-log
// head, one byte per vertex, the parents), with no counter readback
// between levels; a traversal deeper than the log head's 64 levels pays a
// second copy for the rest of the log (and, past 254 levels, the 4-byte
// status).  Each level's decision pays the grid barrier in front of it and
// none behind it.  The TripleBinned host loop keeps one synchronize() plus
// one counter readback per level.  Both keep per-level frontier totals
// exact when one instance runs source after source on its three rotating
// counter sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

#include "core/xbfs.h"
#include "graph/builder.h"
#include "graph/device_csr.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/sanitizer.h"
#include "obs/trace.h"

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

graph::Csr path_graph(vid_t n) {
  std::vector<graph::Edge> e;
  for (vid_t v = 0; v + 1 < n; ++v) e.push_back({v, v + 1});
  return graph::build_csr(n, std::move(e));
}

struct FixedCostCase {
  const char* name;
  graph::Csr g;
  vid_t src;
};

/// Two chains traversed from an end (depth 150 and 1500) and two
/// adaptive graphs that between them run every strategy.
std::vector<FixedCostCase> fixed_cost_cases() {
  std::vector<FixedCostCase> out;
  out.push_back({"chain150", path_graph(150), 0});
  out.push_back({"chain1500", path_graph(1500), 0});
  for (auto [name, g] : {std::pair{"rmat", rmat_graph(12, 16)},
                         std::pair{"citation", citation_graph()}}) {
    const vid_t src = graph::largest_component_vertices(g).front();
    out.push_back({name, std::move(g), src});
  }
  return out;
}

/// A run's host protocol, as the attribution sink saw it.
struct RunBudget {
  std::uint64_t launches = 0;
  std::uint64_t syncs = 0;
  std::uint64_t memcpys = 0;

  bool operator==(const RunBudget&) const = default;
};

RunBudget run_budget(sim::Device& dev, core::Xbfs& bfs, vid_t src,
                     core::BfsResult* out) {
  sim::AttributionSink sink;
  {
    sim::ScopedAttribution attr(dev, sink);
    *out = bfs.run(src);
  }
  return {sink.launches, sink.syncs, sink.memcpys};
}

std::ostream& operator<<(std::ostream& os, const RunBudget& b) {
  return os << "{launches=" << b.launches << " syncs=" << b.syncs
            << " memcpys=" << b.memcpys << "}";
}

TEST(XbfsFixedCost, OneInitLaunchAndOnlyStrategyKernelsPerLevel) {
  bool saw_scanfree = false, saw_generate = false, saw_nfg = false,
       saw_bottomup = false;
  for (const FixedCostCase& c : fixed_cost_cases()) {
    SCOPED_TRACE(c.name);
    sim::Device dev = make_device(1);
    auto dg = graph::DeviceCsr::upload(dev, c.g);
    core::Xbfs bfs(dev, dg);
    dev.profiler().clear();
    const core::BfsResult r = bfs.run(c.src);

    std::map<int, unsigned> strategy_launches, appends;
    unsigned inits = 0, packs = 0;
    for (const sim::LaunchRecord& rec : dev.profiler().records()) {
      EXPECT_EQ(rec.kernel.find("reset"), std::string::npos) << rec.kernel;
      // One cooperative launch: its first phase row carries it.
      EXPECT_EQ(rec.launched, rec.kernel == "xbfs_init") << rec.kernel;
      if (rec.kernel == "xbfs_init") {
        EXPECT_EQ(rec.level, -1);
        ++inits;
      } else if (rec.kernel == "xbfs_pack_levels") {
        // The readback's own phase, not the last level's.
        EXPECT_EQ(rec.level, -1);
        ++packs;
      } else if (rec.kernel == "xbfs_append_pending") {
        ++appends[rec.level];
      } else {
        ++strategy_launches[rec.level];
      }
    }
    EXPECT_EQ(inits, 1u);
    // Levels pack into one byte per vertex up to depth 254 (chain1500 reads
    // the 4-byte status instead).
    EXPECT_EQ(packs, r.depth <= 254 ? 1u : 0u);
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

TEST(XbfsFixedCost, LevelLoopPaysNoBarrierBehindADecision) {
  // Each level's decision pays the barrier in front of it and none behind
  // it, so the launch's barriers are those between its rows: rows - 1 when
  // the pack phase follows the last decision, rows when nothing does.
  obs::TraceSession& tr = obs::TraceSession::global();
  for (const FixedCostCase& c : fixed_cost_cases()) {
    for (const bool bitmap : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (bitmap ? " bitmap" : ""));
      sim::Device dev = make_device(1);
      auto dg = graph::DeviceCsr::upload(dev, c.g);
      core::XbfsConfig cfg;
      cfg.bottomup_bitmap = bitmap;
      core::Xbfs bfs(dev, dg, cfg);
      dev.profiler().clear();
      tr.clear();
      tr.enable();
      const core::BfsResult r = bfs.run(c.src);
      const std::vector<obs::Span> spans = tr.snapshot();
      tr.disable();
      tr.clear();

      const std::uint64_t rows = dev.profiler().records().size();
      std::uint64_t barriers = 0, loops = 0;
      for (const obs::Span& sp : spans) {
        if (sp.name != "xbfs_level_loop") continue;
        ++loops;
        const obs::SpanAttr* a = sp.find_attr("barriers");
        ASSERT_NE(a, nullptr);
        barriers = std::stoull(a->value);
      }
      ASSERT_EQ(loops, 1u);
      EXPECT_EQ(barriers, r.depth <= 254 ? rows - 1 : rows)
          << "depth " << r.depth << ", " << rows << " rows";
    }
  }
}

TEST(XbfsFixedCost, OneLaunchOneSyncOneCopyUnlessTheLogHeadOverflows) {
  // Host reads of device data that was never copied back are findings, so
  // a counter-set readback between levels would show up here.  Enabled
  // before any allocation: only buffers born under SimSan carry shadows.
  sim::Sanitizer& san = sim::Sanitizer::global();
  sim::SanitizeConfig stale;
  stale.stale = true;
  san.configure(stale);
  std::uint32_t deepest = 0, copies_two = 0;
  {
    for (const FixedCostCase& c : fixed_cost_cases()) {
      for (const bool parents : {false, true}) {
        SCOPED_TRACE(std::string(c.name) + (parents ? " parents" : ""));
        sim::Device dev = make_device(1);
        auto dg = graph::DeviceCsr::upload(dev, c.g);
        core::XbfsConfig cfg;
        cfg.build_parents = parents;
        core::Xbfs bfs(dev, dg, cfg);
        core::BfsResult r;
        // Cooperative launch, host wait, then the log head with the packed
        // levels (and parents); only the chains, deeper than the head's 64
        // levels, copy the rest of the log (and chain1500 the status).
        const RunBudget b = run_budget(dev, bfs, c.src, &r);
        const std::uint64_t copies = r.depth > 64 ? 2 : 1;
        EXPECT_EQ(b, (RunBudget{1, 1, copies}));
        EXPECT_EQ(r.levels, graph::reference_bfs(c.g, c.src));
        if (parents) {
          EXPECT_EQ(
              graph::validate_bfs_parents(c.g, c.src, r.levels, r.parent), "");
        }
        deepest = std::max(deepest, r.depth);
        copies_two += copies == 2;
      }
    }
  }
  const std::uint64_t stale_reads =
      san.finding_count(sim::DefectKind::StaleHostRead);
  san.reset();
  san.disable();
  EXPECT_EQ(stale_reads, 0u);
  EXPECT_EQ(deepest, 1500u);
  EXPECT_EQ(copies_two, 4u) << "chain150 and chain1500, with and without "
                               "parents";
}

TEST(XbfsFixedCost, OneCounterReadbackPerLevel) {
  // TripleBinned keeps the CUDA design's host loop: a round trip per level.
  for (const FixedCostCase& c : fixed_cost_cases()) {
    for (const bool parents : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (parents ? " parents" : ""));
      sim::Device dev = make_device(1);
      auto dg = graph::DeviceCsr::upload(dev, c.g);
      core::XbfsConfig cfg;
      cfg.build_parents = parents;
      cfg.stream_mode = core::StreamMode::TripleBinned;
      core::Xbfs bfs(dev, dg, cfg);
      core::BfsResult r;
      const RunBudget b = run_budget(dev, bfs, c.src, &r);
      // Scan-free levels also read the three bin sizes back.
      std::uint64_t scanfree = 0;
      for (const core::LevelStats& st : r.level_stats) {
        scanfree += st.strategy == core::Strategy::ScanFree;
      }
      // One synchronize() and counter readback per level, then status
      // (and parent) and the final wait.
      EXPECT_EQ(b.syncs, r.depth + 1u);
      EXPECT_EQ(b.memcpys, r.depth + scanfree + 1u + (parents ? 1u : 0u));
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

graph::Csr chain_graph() { return path_graph(150); }  // 150 levels, > 64

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

/// FNV-1a over the protocol facts one run leaves behind: its levels, each
/// level's strategy / NFG / frontier totals, and every profiler row's
/// kernel, level and counters, except rows of the kernels `skip` names.  At
/// one worker these are deterministic, so a refactor of the level loop that
/// keeps the hash keeps the protocol.
struct RunHash {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (x & 0xff)) * 0x100000001b3ull;
      x >>= 8;
    }
  }
  void mix(const std::string& s) {
    for (const char c : s) mix(static_cast<std::uint8_t>(c));
    mix(s.size());
  }
  void mix(const core::BfsResult& r, const sim::Profiler& prof,
           std::initializer_list<std::string_view> skip = {}) {
    const auto kept = [&](const sim::LaunchRecord& rec) {
      return std::find(skip.begin(), skip.end(), rec.kernel) == skip.end();
    };
    for (const std::int32_t l : r.levels) mix(static_cast<std::uint32_t>(l));
    mix(r.level_stats.size());
    for (const core::LevelStats& st : r.level_stats) {
      mix(st.level);
      mix(static_cast<std::uint64_t>(st.strategy));
      mix(st.skipped_generation);
      mix(st.frontier_count);
      mix(st.frontier_edges);
    }
    const auto& recs = prof.records();
    mix(static_cast<std::size_t>(std::count_if(recs.begin(), recs.end(), kept)));
    for (const sim::LaunchRecord& rec : recs) {
      if (!kept(rec)) continue;
      mix(rec.kernel);
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.level)));
      mix(rec.counters.fetch_bytes);
      mix(rec.counters.l2_hits);
      mix(rec.counters.l2_misses);
      mix(rec.counters.lane_slots);
      mix(rec.counters.atomics);
    }
  }
};

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

  // The first source has odd depth; the later runs reuse the counter sets
  // it left behind (xbfs_init zeroes all three).
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
  // The strategy hash leaves out the readback's pack phase, so it pins the
  // init and level-loop rows alone; the loop hash leaves out the init row
  // too, so it pins the level loop's rows alone.
  RunHash hash, strategy_hash, loop_hash;
  for (int i = 0; i < 3; ++i) {
    const vid_t src = sources[i];
    std::ostringstream where;
    where << "graph=" << gc.name << " cfg=" << cc.name << " seed=" << kSeed
          << " workers=" << workers << " run=" << i << " src=" << src;
    SCOPED_TRACE(where.str());
    const auto ref = graph::reference_bfs(g, src);
    dev.profiler().clear();
    const core::BfsResult r = bfs.run(src);
    hash.mix(r, dev.profiler());
    strategy_hash.mix(r, dev.profiler(), {"xbfs_pack_levels"});
    loop_hash.mix(r, dev.profiler(), {"xbfs_init", "xbfs_pack_levels"});
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
  if (workers == 1) {
    char line[32], strategy_line[32], loop_line[32];
    std::snprintf(line, sizeof(line), "%016llx",
                  static_cast<unsigned long long>(hash.h));
    std::snprintf(strategy_line, sizeof(strategy_line), "%016llx",
                  static_cast<unsigned long long>(strategy_hash.h));
    std::snprintf(loop_line, sizeof(loop_line), "%016llx",
                  static_cast<unsigned long long>(loop_hash.h));
    RecordProperty("protocol_hash", line);
    RecordProperty("strategy_hash", strategy_line);
    RecordProperty("loop_hash", loop_line);
    std::printf("[ XbfsLevelTotals ] %s_%s protocol_hash=%s "
                "strategy_hash=%s loop_hash=%s\n",
                gc.name, cc.name, line, strategy_line, loop_line);
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
