// The device protocol of dyn::IncrementalBfs over a churned DeltaCsr
// mirror (live tombstones and insert overlay).  DynFixedCost pins the
// per-round budget: one strategy launch per recompute level, at most two
// per fixpoint round, one counter readback per round and no reset or
// append launches.  DynLevelTotals checks that recomputes, top-down and
// bottom-up repairs and the fallbacks between them give reference levels,
// that recompute level totals match the reference census, and, at one
// worker, hashes the whole run sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dyn/delta_ref.h"
#include "dyn/graph_store.h"
#include "dyn/incremental_bfs.h"
#include "graph/builder.h"
#include "graph/generators.h"
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

/// Vertices per level of a reference labelling.
std::vector<std::uint64_t> level_census(const std::vector<std::int32_t>& ref) {
  std::vector<std::uint64_t> census;
  for (const std::int32_t l : ref) {
    if (l < 0) continue;
    if (census.size() <= static_cast<std::size_t>(l)) census.resize(l + 1);
    ++census[l];
  }
  return census;
}

/// Per-level frontier counts of `r` equal the reference census.
void expect_census(const core::BfsResult& r,
                   const std::vector<std::int32_t>& ref) {
  const std::vector<std::uint64_t> census = level_census(ref);
  ASSERT_EQ(r.level_stats.size(), census.size());
  for (std::size_t l = 0; l < census.size(); ++l) {
    EXPECT_EQ(r.level_stats[l].frontier_count, census[l]) << "level " << l;
  }
}

/// FNV-1a over everything a run's protocol decides: levels, the
/// repair/recompute choice and, per level, strategy and frontier totals.
struct RunHash {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (x & 0xff)) * 0x100000001b3ull;
      x >>= 8;
    }
  }
  void mix(const core::BfsResult& r, const IncrementalBfs::LastRun& lr) {
    mix(lr.repair);
    for (const std::int32_t l : r.levels) {
      mix(static_cast<std::uint32_t>(l));
    }
    mix(r.level_stats.size());
    for (const core::LevelStats& st : r.level_stats) {
      mix(st.level);
      mix(static_cast<std::uint64_t>(st.strategy));
      mix(st.frontier_count);
      mix(st.frontier_edges);
    }
  }
};

// ---------------------------------------------------------------------------
// Launch and copy budget per round.

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

/// Launches per profiler level, apart from the mirror's patch kernel.
std::map<int, std::vector<std::string>> round_launches(sim::Device& dev) {
  std::map<int, std::vector<std::string>> out;
  for (const sim::LaunchRecord& rec : dev.profiler().records()) {
    if (rec.kernel == "dyn_apply_patch") continue;
    EXPECT_EQ(rec.kernel.find("reset"), std::string::npos) << rec.kernel;
    EXPECT_EQ(rec.kernel.find("append"), std::string::npos) << rec.kernel;
    out[rec.level].push_back(rec.kernel);
  }
  return out;
}

TEST(DynFixedCost, RecomputeLaunchesOneStrategyKernelPerLevel) {
  bool saw_push = false, saw_pull = false;
  for (const GraphCase& gc : kGraphs) {
    for (const double alpha : {0.1, 1e-9}) {
      SCOPED_TRACE(std::string(gc.name) + " alpha=" + std::to_string(alpha));
      ChurnedStore cs(gc.make(), 3);
      sim::Device dev = make_device(1);
      core::XbfsConfig cfg = cs.cfg;
      cfg.alpha = alpha;
      IncrementalBfs eng(dev, *cs.store, cfg);
      eng.run(0);  // syncs the mirror
      eng.clear_history();
      dev.profiler().clear();
      const core::BfsResult r = eng.run(0);
      const auto launches = round_launches(dev);
      ASSERT_EQ(launches.size(), r.level_stats.size());
      for (const core::LevelStats& st : r.level_stats) {
        const auto it = launches.find(static_cast<int>(st.level));
        ASSERT_NE(it, launches.end()) << "level " << st.level;
        ASSERT_EQ(it->second.size(), 1u) << "level " << st.level;
        EXPECT_EQ(st.kernels, 1u);
        const bool pull = st.strategy == core::Strategy::BottomUp;
        EXPECT_EQ(it->second[0], pull ? "dyn_repair_pull" : "dyn_fix_push");
        (pull ? saw_pull : saw_push) = true;
      }
    }
  }
  EXPECT_TRUE(saw_push);
  EXPECT_TRUE(saw_pull);
}

TEST(DynFixedCost, FixpointRoundLaunchesAtMostTwoKernels) {
  unsigned repairs = 0, two_kernel_rounds = 0;
  for (const GraphCase& gc : kGraphs) {
    for (const double alpha : {1e9, 1e-9}) {
      SCOPED_TRACE(std::string(gc.name) + " alpha=" + std::to_string(alpha));
      ChurnedStore cs(gc.make(), 3);
      sim::Device dev = make_device(1);
      core::XbfsConfig cfg = cs.cfg;
      cfg.alpha = alpha;
      cfg.dyn_repair_ratio = 1.0;
      IncrementalBfs eng(dev, *cs.store, cfg);
      eng.run(0);
      for (int round = 0; round < 3; ++round) {
        cs.step(4);
        dev.profiler().clear();
        const core::BfsResult r = eng.run(0);
        if (!eng.last_run().repair) continue;
        ++repairs;
        const auto launches = round_launches(dev);
        ASSERT_EQ(launches.size(), r.level_stats.size());
        for (const core::LevelStats& st : r.level_stats) {
          const auto it = launches.find(static_cast<int>(st.level));
          ASSERT_NE(it, launches.end()) << "round " << st.level;
          const std::vector<std::string>& ks = it->second;
          ASSERT_GE(ks.size(), 1u);
          ASSERT_LE(ks.size(), 2u) << "round " << st.level;
          EXPECT_EQ(st.kernels, ks.size());
          for (const std::string& k : ks) {
            EXPECT_TRUE(k == "dyn_fix_push" || k == "dyn_fix_pull") << k;
          }
          if (ks.size() == 2) {
            EXPECT_EQ(ks[0], "dyn_fix_push");
            EXPECT_EQ(ks[1], "dyn_fix_pull");
            ++two_kernel_rounds;
          }
        }
      }
    }
  }
  EXPECT_GT(repairs, 0u);
  EXPECT_GT(two_kernel_rounds, 0u);
}

TEST(DynFixedCost, RecomputeCopiesGrowByOnePerLevel) {
  for (const GraphCase& gc : kGraphs) {
    SCOPED_TRACE(gc.name);
    ChurnedStore cs(gc.make(), 3);
    sim::Device dev = make_device(1);
    IncrementalBfs eng(dev, *cs.store, cs.cfg);
    const vid_t n = cs.store->snapshot().graph->num_vertices();
    eng.run(0);  // syncs the mirror
    for (const vid_t src : {vid_t{0}, n / 2, n - 1}) {
      eng.clear_history();
      sim::AttributionSink sink;
      core::BfsResult r;
      {
        sim::ScopedAttribution attr(dev, sink);
        r = eng.run(src);
      }
      // Status and source h2d, one counter readback per level, the
      // status d2h; one strategy launch per level.
      EXPECT_EQ(sink.memcpys, r.level_stats.size() + 3) << "src " << src;
      EXPECT_EQ(sink.launches, r.level_stats.size()) << "src " << src;
    }
  }
}

/// A kernel fault can abort a pull-mode fixpoint round between its two
/// kernels, leaving that round's counter set half-filled.  The next run
/// re-zeroes both sets, so its level totals stay exact.  On the chain
/// every deletion dirties a tail and every useful insert seeds a push,
/// so faulted repairs often stop between dyn_fix_push and dyn_fix_pull.
TEST(DynFixedCost, RunAfterAFaultedRoundKeepsExactTotals) {
  ChurnedStore cs(chain_graph(), 3);
  sim::Device dev = make_device(1);
  core::XbfsConfig cfg = cs.cfg;
  cfg.alpha = 1e-9;  // repairs with a dirty region pull every round
  cfg.dyn_repair_ratio = 1.0;
  IncrementalBfs eng(dev, *cs.store, cfg);
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
    eng.clear_history();
    const core::BfsResult r = eng.run(0);
    const std::vector<std::int32_t> ref =
        reference_bfs(*cs.store->snapshot().graph, 0);
    ASSERT_EQ(r.levels, ref);
    expect_census(r, ref);
  }
  EXPECT_GT(faulted, 0u);
}

/// Every race the three kernels and the in-kernel counter zeroing run
/// into is one a live racy_ok annotation documents.
TEST(DynFixedCost, KernelRacesAreAllAnnotated) {
  sim::Sanitizer& san = sim::Sanitizer::global();
  san.configure(sim::SanitizeConfig::all_on());
  for (const double alpha : {0.1, 1e-9, 1e9}) {
    ChurnedStore cs(rmat_graph(), 3);
    sim::Device dev = make_device(4);
    core::XbfsConfig cfg = cs.cfg;
    cfg.alpha = alpha;
    cfg.dyn_repair_ratio = 1.0;
    IncrementalBfs eng(dev, *cs.store, cfg);
    for (int round = 0; round < 3; ++round) {
      eng.run(0);
      cs.step(6);
    }
  }
  const std::uint64_t unannotated = san.unannotated_count();
  const std::vector<std::string> stale = san.stale_annotations();
  san.reset();
  san.disable();
  EXPECT_EQ(unannotated, 0u);
  for (const std::string& why : stale) {
    EXPECT_NE(why.rfind("dyn-", 0), 0u) << "stale annotation: " << why;
  }
}

// ---------------------------------------------------------------------------
// Differential guard: levels and totals over a churned mirror.

using TotalsParam = std::tuple<std::size_t /*graph*/, unsigned /*workers*/>;

class DynLevelTotals : public ::testing::TestWithParam<TotalsParam> {};

TEST_P(DynLevelTotals, RecomputeRepairAndFallbackMatchReference) {
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
  std::set<std::string> outcomes;  // "repair" or the fallback reason

  const auto run_checked = [&](IncrementalBfs& eng, vid_t src,
                               const char* phase) {
    SCOPED_TRACE(std::string(phase) + " src=" + std::to_string(src));
    const Snapshot snap = store.snapshot();
    const core::BfsResult r = eng.run(src);
    const IncrementalBfs::LastRun lr = eng.last_run();
    EXPECT_EQ(r.levels, reference_bfs(*snap.graph, src));
    EXPECT_EQ(lr.epoch, snap.epoch);
    outcomes.insert(lr.repair ? "repair" : lr.fallback);
    hash.mix(r, lr);
    return r;
  };

  // Recompute: per-level frontier counts equal the reference census.
  {
    IncrementalBfs eng(dev, store, cfg);
    for (const vid_t src : sources) {
      eng.clear_history();
      const core::BfsResult r = run_checked(eng, src, "recompute");
      EXPECT_FALSE(eng.last_run().repair);
      expect_census(r, reference_bfs(*store.snapshot().graph, src));
    }
  }

  // Repair, forced top-down (alpha huge) and bottom-up (alpha tiny).
  for (const double alpha : {1e9, 1e-9}) {
    const bool pull = alpha < 1.0;
    SCOPED_TRACE(pull ? "bottom-up repair" : "top-down repair");
    core::XbfsConfig rcfg = cfg;
    rcfg.alpha = alpha;
    rcfg.dyn_repair_ratio = 1.0;
    IncrementalBfs eng(dev, store, rcfg);
    for (const vid_t src : sources) run_checked(eng, src, "cold");
    unsigned repairs = 0, pulled = 0;
    for (int round = 0; round < 3; ++round) {
      store.apply(churn(*store.snapshot().graph, rng, 2 + n / 50));
      for (const vid_t src : sources) {
        const core::BfsResult r = run_checked(eng, src, "repair");
        if (!eng.last_run().repair) continue;
        ++repairs;
        for (const core::LevelStats& st : r.level_stats) {
          if (st.strategy == core::Strategy::BottomUp) {
            ++pulled;
            break;
          }
        }
      }
    }
    EXPECT_GT(repairs, 0u);
    if (pull) {
      EXPECT_GT(pulled, 0u) << "no repair took the bottom-up path";
    } else {
      EXPECT_EQ(pulled, 0u) << "a top-down repair pulled";
    }
  }

  // Back to back on one engine: small batches repair, a large one falls
  // back on the repair ratio, cleared history recomputes.
  {
    core::XbfsConfig mcfg = cfg;
    mcfg.dyn_repair_ratio = 0.05;
    IncrementalBfs eng(dev, store, mcfg);
    for (const unsigned ops : {0u, 2u, n, 2u, 0u}) {
      if (ops == 0) eng.clear_history();
      if (ops != 0) {
        store.apply(churn(*store.snapshot().graph, rng, ops));
      }
      for (const vid_t src : sources) run_checked(eng, src, "mixed");
    }
  }
  EXPECT_TRUE(outcomes.count("repair"));
  EXPECT_TRUE(outcomes.count("ratio"));
  EXPECT_TRUE(outcomes.count("no-history"));

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
