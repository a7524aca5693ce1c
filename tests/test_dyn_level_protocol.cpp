// The device protocol of dyn::IncrementalBfs: a mirror sync plus one
// core::Xbfs traversal of the churned DeltaCsr mirror (live tombstones and
// insert overlay), and lp-cc over the same mirror under SimSan.
// DynFixedCost pins the budget: a same-epoch run costs what a static Xbfs
// run costs (one launch, one sync, one copy at depth <= 64, a second copy
// deeper), and an epoch change adds only the mirror sync.  DynLevelTotals
// runs every forced strategy, balancing mode and bottom-up variant plus the
// TripleBinned stream mode over the mirror and checks reference levels and
// per-level totals; at one worker it hashes the whole run sequence.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algos/cc_engine.h"
#include "dyn/delta_ref.h"
#include "dyn/graph_store.h"
#include "dyn/incremental_bfs.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/fault.h"
#include "hipsim/sanitizer.h"

namespace xbfs::dyn {
namespace {

using graph::vid_t;

constexpr std::uint64_t kSeed = 7;

graph::Csr rmat_graph() {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 8;
  p.seed = kSeed;
  return graph::rmat_csr(p);
}

graph::Csr chain_graph() {  // 150 levels from an end
  std::vector<graph::Edge> e;
  for (vid_t v = 0; v + 1 < 150; ++v) e.push_back({v, v + 1});
  return graph::build_csr(150, std::move(e));
}

graph::Csr star_graph() {
  std::vector<graph::Edge> e;
  for (vid_t v = 1; v < 500; ++v) e.push_back({0, v});
  return graph::build_csr(500, std::move(e));
}

struct GraphCase {
  const char* name;
  graph::Csr (*make)();
};

const GraphCase kGraphs[] = {
    {"rmat", rmat_graph},
    {"chain", chain_graph},
    {"star", star_graph},
    {"ragged", [] { return graph::erdos_renyi(997, 3000, kSeed); }},
};

/// `ops` seeded updates against the live graph: alternately delete a
/// random live edge and insert a random absent pair.
EdgeBatch churn(const DeltaCsr& g, std::mt19937_64& rng, unsigned ops) {
  const vid_t n = g.num_vertices();
  std::uniform_int_distribution<vid_t> pick(0, n - 1);
  EdgeBatch b;
  for (unsigned i = 0, tries = 0; i < ops && tries < 100 * ops; ++tries) {
    const vid_t u = pick(rng);
    if (i % 2 == 0) {
      if (g.degree(u) == 0) continue;
      std::vector<vid_t> nb;
      g.for_each_neighbor(u, [&](vid_t w) { nb.push_back(w); });
      b.erase(u, nb[rng() % nb.size()]);
    } else {
      const vid_t v = pick(rng);
      if (u == v || g.has_edge(u, v)) continue;
      b.insert(u, v);
    }
    ++i;
  }
  return b;
}

/// Per-level totals of `r` against the reference labelling: the vertex
/// census, and the base row lengths (tombstones included, overlay
/// excluded) summed per level.  With several workers, single-scan's plain
/// claims may count a vertex twice, so the totals a single-scan level
/// leaves for the next one are lower bounds there (a generated level
/// recounts its frontier exactly).
void expect_totals(const core::BfsResult& r,
                   const std::vector<std::int32_t>& ref, const DeltaCsr& g,
                   bool exact) {
  std::vector<std::uint64_t> count, edges;
  const std::vector<graph::eid_t>& off = g.base().offsets();
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (ref[v] < 0) continue;
    if (count.size() <= static_cast<std::size_t>(ref[v])) {
      count.resize(ref[v] + 1);
      edges.resize(ref[v] + 1);
    }
    ++count[ref[v]];
    edges[ref[v]] += off[v + 1] - off[v];
  }
  ASSERT_EQ(r.level_stats.size(), count.size());
  for (std::size_t l = 0; l < count.size(); ++l) {
    const core::LevelStats& st = r.level_stats[l];
    const bool bound =
        !exact && l > 0 &&
        r.level_stats[l - 1].strategy == core::Strategy::SingleScan;
    const bool generated = st.strategy == core::Strategy::SingleScan &&
                           !st.skipped_generation;
    if (bound && !generated) {
      EXPECT_GE(st.frontier_count, count[l]) << "level " << l;
    } else {
      EXPECT_EQ(st.frontier_count, count[l]) << "level " << l;
    }
    if (bound) {
      EXPECT_GE(st.frontier_edges, edges[l]) << "level " << l;
    } else {
      EXPECT_EQ(st.frontier_edges, edges[l]) << "level " << l;
    }
  }
}

/// FNV-1a over everything a run's protocol decides: levels and, per level,
/// strategy, NFG and frontier totals.
struct RunHash {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (x & 0xff)) * 0x100000001b3ull;
      x >>= 8;
    }
  }
  void mix(const core::BfsResult& r) {
    for (const std::int32_t l : r.levels) {
      mix(static_cast<std::uint32_t>(l));
    }
    mix(r.level_stats.size());
    for (const core::LevelStats& st : r.level_stats) {
      mix(st.level);
      mix(static_cast<std::uint64_t>(st.strategy));
      mix(st.skipped_generation);
      mix(st.frontier_count);
      mix(st.frontier_edges);
    }
  }
};

// ---------------------------------------------------------------------------
// Launch, sync and copy budget per run.

/// A store over `base` with compaction off and `batches` seeded churn
/// batches applied, so the device mirror has tombstones and overlay.
struct ChurnedStore {
  core::XbfsConfig cfg;
  std::unique_ptr<GraphStore> store;
  std::mt19937_64 rng{kSeed};

  ChurnedStore(graph::Csr base, int batches) {
    cfg.report_runs = false;
    cfg.dyn_compact_threshold = 1e9;
    store = std::make_unique<GraphStore>(std::move(base), cfg);
    for (int i = 0; i < batches; ++i) step(8);
  }
  void step(unsigned ops) {
    store->apply(churn(*store->snapshot().graph, rng, ops));
  }
};

sim::Device make_device(unsigned workers) {
  return sim::Device(sim::DeviceProfile::mi250x_gcd(),
                     sim::SimOptions{.num_workers = workers});
}

/// A run's host protocol, as the attribution sink saw it.
struct RunBudget {
  std::uint64_t launches = 0;
  std::uint64_t syncs = 0;
  std::uint64_t memcpys = 0;

  bool operator==(const RunBudget&) const = default;
};

std::ostream& operator<<(std::ostream& os, const RunBudget& b) {
  return os << "{launches=" << b.launches << " syncs=" << b.syncs
            << " memcpys=" << b.memcpys << "}";
}

RunBudget run_budget(sim::Device& dev, IncrementalBfs& eng, vid_t src,
                     core::BfsResult* out) {
  sim::AttributionSink sink;
  {
    sim::ScopedAttribution attr(dev, sink);
    *out = eng.run(src);
  }
  return {sink.launches, sink.syncs, sink.memcpys};
}

/// Launched kernels of the profiled run(s): only Xbfs's, apart from the
/// mirror's patch kernel; returns how many patch launches there were.
unsigned patch_launches(sim::Device& dev) {
  unsigned patches = 0;
  for (const sim::LaunchRecord& rec : dev.profiler().records()) {
    if (rec.kernel == "dyn_apply_patch") {
      ++patches;
      continue;
    }
    EXPECT_EQ(rec.kernel.rfind("xbfs_", 0), 0u) << rec.kernel;
  }
  return patches;
}

TEST(DynFixedCost, SameEpochRunCostsOneCopyUnlessTheLogHeadOverflows) {
  for (const GraphCase& gc : kGraphs) {
    SCOPED_TRACE(gc.name);
    ChurnedStore cs(gc.make(), 3);
    sim::Device dev = make_device(1);
    DeviceMirror mirror(dev, *cs.store, cs.cfg.block_threads);
    IncrementalBfs eng(mirror, cs.cfg);
    const vid_t n = cs.store->snapshot().graph->num_vertices();
    core::BfsResult r = eng.run(0);  // syncs the mirror
    for (const vid_t src : {vid_t{0}, n / 2, n - 1}) {
      dev.profiler().clear();
      // Xbfs's budget: the cooperative launch, the host wait, then the
      // log head with the packed levels, plus the rest of the log when the
      // traversal is deeper than the head's 64 levels (the chain).
      const RunBudget b = run_budget(dev, eng, src, &r);
      EXPECT_EQ(b, (RunBudget{1, 1, r.depth > 64 ? 2u : 1u}))
          << "src " << src;
      EXPECT_EQ(patch_launches(dev), 0u);
      EXPECT_EQ(r.levels, reference_bfs(*cs.store->snapshot().graph, src));
    }
  }
}

TEST(DynFixedCost, EpochChangeAddsOnlyTheMirrorSync) {
  unsigned patched = 0;
  for (const GraphCase& gc : kGraphs) {
    SCOPED_TRACE(gc.name);
    ChurnedStore cs(gc.make(), 3);
    sim::Device dev = make_device(1);
    DeviceMirror mirror(dev, *cs.store, cs.cfg.block_threads);
    IncrementalBfs eng(mirror, cs.cfg);
    eng.run(0);
    for (int round = 0; round < 3; ++round) {
      cs.step(4);
      dev.profiler().clear();
      core::BfsResult r;
      const RunBudget b = run_budget(dev, eng, 0, &r);
      // At most one dyn_apply_patch launch (with its sync and its h2d of
      // the patch list), then the overlay h2d, then Xbfs's budget.
      const unsigned p = patch_launches(dev);
      ASSERT_LE(p, 1u);
      const unsigned xbfs_copies = r.depth > 64 ? 2 : 1;
      EXPECT_EQ(b, (RunBudget{1 + p, 1 + p, 1 + xbfs_copies + p}))
          << "round " << round;
      EXPECT_EQ(r.levels, reference_bfs(*cs.store->snapshot().graph, 0));
      patched += p;
    }
  }
  EXPECT_GT(patched, 0u);
}

/// A kernel fault can abort a run in the mirror's patch launch or in the
/// cooperative traversal.  The next run still syncs the mirror and starts
/// the traversal from xbfs_init, so its levels and level totals stay exact.
TEST(DynFixedCost, RunAfterAFaultedRoundKeepsExactTotals) {
  ChurnedStore cs(chain_graph(), 3);
  sim::Device dev = make_device(1);
  DeviceMirror mirror(dev, *cs.store, cs.cfg.block_threads);
  IncrementalBfs eng(mirror, cs.cfg);
  sim::FaultInjector& faults = sim::FaultInjector::global();
  unsigned faulted = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("replay=" + std::to_string(seed));
    eng.run(0);
    cs.step(2);
    sim::FaultConfig fc;
    fc.kernel_fault_rate = 0.5;
    fc.seed = seed;
    faults.reset_counters();
    faults.configure(fc);
    try {
      eng.run(0);
    } catch (const sim::FaultInjected&) {
      ++faulted;
    }
    faults.disable();
    const core::BfsResult r = eng.run(0);
    const Snapshot snap = cs.store->snapshot();
    const std::vector<std::int32_t> ref = reference_bfs(*snap.graph, 0);
    ASSERT_EQ(r.levels, ref);
    expect_totals(r, ref, *snap.graph, /*exact=*/true);
  }
  EXPECT_GT(faulted, 0u);
}

/// Xbfs over the mirror, every strategy and both stream modes, under SimSan
/// all-on: every race is one a live racy_ok annotation documents, and no
/// access leaves its buffer — a tombstone never indexes status.
TEST(DynFixedCost, KernelRacesAreAllAnnotated) {
  sim::Sanitizer& san = sim::Sanitizer::global();
  san.configure(sim::SanitizeConfig::all_on());
  std::vector<core::XbfsConfig> cfgs(5);
  cfgs[1].forced_strategy = static_cast<int>(core::Strategy::SingleScan);
  cfgs[2].forced_strategy = static_cast<int>(core::Strategy::BottomUp);
  cfgs[2].bottomup_bitmap = true;
  cfgs[3].forced_strategy = static_cast<int>(core::Strategy::BottomUp);
  cfgs[3].bottomup_warp_centric = true;
  cfgs[4].stream_mode = core::StreamMode::TripleBinned;
  for (const core::XbfsConfig& base : cfgs) {
    ChurnedStore cs(rmat_graph(), 3);
    sim::Device dev = make_device(4);
    core::XbfsConfig cfg = base;
    cfg.report_runs = false;
    cfg.dyn_compact_threshold = cs.cfg.dyn_compact_threshold;
    DeviceMirror mirror(dev, *cs.store, cfg.block_threads);
    IncrementalBfs eng(mirror, cfg);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(eng.run(0).levels,
                reference_bfs(*cs.store->snapshot().graph, 0));
      cs.step(6);
    }
  }
  const std::uint64_t unannotated = san.unannotated_count();
  const std::uint64_t out_of_bounds =
      san.finding_count(sim::DefectKind::OutOfBounds);
  san.reset();
  san.disable();
  EXPECT_EQ(unannotated, 0u);
  EXPECT_EQ(out_of_bounds, 0u);
}

/// lp-cc over a tombstoned, overlaid mirror under SimSan all-on: its hook
/// skips every kTombstone entry before touching a label, and its races are
/// the annotated monotone-label ones.
TEST(DynFixedCost, LpCcRacesOverTheMirrorAreAllAnnotated) {
  sim::Sanitizer& san = sim::Sanitizer::global();
  san.configure(sim::SanitizeConfig::all_on());
  ChurnedStore cs(rmat_graph(), 3);
  sim::Device dev = make_device(4);
  DeviceMirror mirror(dev, *cs.store, cs.cfg.block_threads);
  algos::LpCcEngine cc(dev, mirror.csr());
  for (int round = 0; round < 3; ++round) {
    const Snapshot snap = mirror.sync();
    ASSERT_GT(snap.graph->tombstone_entries(), 0u);
    EXPECT_EQ(*cc.solve({}).payload.components,
              graph::canonical_components(*snap.graph));
    cs.step(6);
  }
  const std::uint64_t unannotated = san.unannotated_count();
  const std::uint64_t out_of_bounds =
      san.finding_count(sim::DefectKind::OutOfBounds);
  san.reset();
  san.disable();
  EXPECT_EQ(unannotated, 0u);
  EXPECT_EQ(out_of_bounds, 0u);
}

// ---------------------------------------------------------------------------
// Differential guard: every strategy kernel over a churned mirror.

struct ConfigCase {
  std::string name;
  core::XbfsConfig cfg;
};

/// Each forced strategy x top-down balancing x bottom-up warp-centric x
/// bottom-up bitmap, plus the adaptive policy in both stream modes.
std::vector<ConfigCase> config_cases() {
  std::vector<ConfigCase> out;
  out.push_back({"adaptive", {}});
  core::XbfsConfig tb;
  tb.stream_mode = core::StreamMode::TripleBinned;
  out.push_back({"triple_binned", tb});
  const std::pair<core::Balancing, const char*> balancings[] = {
      {core::Balancing::ThreadCentric, "thread"},
      {core::Balancing::WavefrontCentric, "wavefront"},
      {core::Balancing::DegreeBinned, "binned"}};
  for (const core::Strategy s :
       {core::Strategy::ScanFree, core::Strategy::SingleScan,
        core::Strategy::BottomUp}) {
    for (const auto& [bal, bal_name] : balancings) {
      for (const bool warp : {false, true}) {
        for (const bool bitmap : {false, true}) {
          core::XbfsConfig c;
          c.forced_strategy = static_cast<int>(s);
          c.topdown_balancing = bal;
          c.bottomup_warp_centric = warp;
          c.bottomup_bitmap = bitmap;
          out.push_back({std::string(core::strategy_name(s)) + "_" +
                             bal_name + (warp ? "_warp" : "") +
                             (bitmap ? "_bitmap" : ""),
                         c});
        }
      }
    }
  }
  return out;
}

using TotalsParam = std::tuple<std::size_t /*graph*/, unsigned /*workers*/>;

class DynLevelTotals : public ::testing::TestWithParam<TotalsParam> {};

TEST_P(DynLevelTotals, DeviceRunsOverTheMirrorMatchReference) {
  const auto [gi, workers] = GetParam();
  const GraphCase& gc = kGraphs[gi];
  const std::uint64_t seed = kSeed * 1000 + gi;
  std::ostringstream where;
  where << "graph=" << gc.name << " workers=" << workers
        << " replay=" << seed;
  SCOPED_TRACE(where.str());

  // Compaction off: tombstones and overlay both stay live on the device.
  core::XbfsConfig cfg;
  cfg.report_runs = false;
  cfg.dyn_compact_threshold = 1e9;
  GraphStore store(gc.make(), cfg);
  const vid_t n = store.snapshot().graph->num_vertices();
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 3; ++i) {
    store.apply(churn(*store.snapshot().graph, rng, 2 + n / 25));
  }
  {
    const Snapshot s = store.snapshot();
    ASSERT_GT(s.graph->tombstone_entries(), 0u);
    ASSERT_GT(s.graph->extra_entries(), 0u);
  }

  sim::Device dev = make_device(workers);
  const vid_t sources[3] = {0, n / 2, n - 1};
  RunHash hash;
  const auto run_checked = [&](IncrementalBfs& eng, vid_t src,
                               const std::string& what) {
    SCOPED_TRACE(what + " src=" + std::to_string(src));
    const Snapshot snap = store.snapshot();
    const core::BfsResult r = eng.run(src);
    const std::vector<std::int32_t> ref = reference_bfs(*snap.graph, src);
    ASSERT_EQ(r.levels, ref);
    expect_totals(r, ref, *snap.graph, workers == 1);
    hash.mix(r);
  };

  for (const ConfigCase& cc : config_cases()) {
    core::XbfsConfig c = cc.cfg;
    c.report_runs = false;
    c.dyn_compact_threshold = cfg.dyn_compact_threshold;
    DeviceMirror mirror(dev, store, c.block_threads);
    IncrementalBfs eng(mirror, c);
    for (const vid_t src : sources) run_checked(eng, src, cc.name);
  }

  // One engine across epochs: in-place tombstone patches, revived base
  // edges written back, and the overlay re-uploaded.
  DeviceMirror mirror(dev, store, cfg.block_threads);
  IncrementalBfs eng(mirror, cfg);
  for (int round = 0; round < 3; ++round) {
    EdgeBatch b = churn(*store.snapshot().graph, rng, 2 + n / 50);
    const DeltaCsr::Overlay& tombs = store.snapshot().graph->tombstones();
    if (!tombs.empty()) {
      b.insert(tombs.begin()->first, tombs.begin()->second.front());
    }
    store.apply(b);
    for (const vid_t src : sources) {
      run_checked(eng, src, "churn round " + std::to_string(round));
    }
  }

  if (workers == 1) {
    char line[96];
    std::snprintf(line, sizeof(line), "%016llx",
                  static_cast<unsigned long long>(hash.h));
    RecordProperty("protocol_hash", line);
    std::printf("[ DynLevelTotals ] %s protocol_hash=%s\n", gc.name, line);
  }
}

std::string totals_name(const ::testing::TestParamInfo<TotalsParam>& info) {
  const auto [gi, workers] = info.param;
  return std::string(kGraphs[gi].name) + "_w" + std::to_string(workers);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, DynLevelTotals,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kGraphs)),
                       ::testing::Values(1u, 4u)),
    totals_name);

}  // namespace
}  // namespace xbfs::dyn
