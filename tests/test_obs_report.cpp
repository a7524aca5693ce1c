// Tests for the run-report layer: schema stability, env-var activation,
// per-level rows matching BfsResult::level_stats exactly, kernel
// aggregates, baseline/dist participation and GTEPS guarding.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>

#include "baseline/simple_scan.h"
#include "core/report.h"
#include "core/xbfs.h"
#include "graph/builder.h"
#include "graph/device_csr.h"
#include "hipsim/hipsim.h"
#include "json_mini.h"
#include "obs/run_report.h"
#include "shard/shard_bfs.h"

namespace xbfs {
namespace {

graph::Csr ring_graph(graph::vid_t n) {
  std::vector<graph::Edge> edges;
  for (graph::vid_t v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return graph::build_csr(n, std::move(edges));
}

TEST(RunReport, EnvVarActivatesSession) {
  ::setenv("XBFS_RUN_REPORT", "/tmp/xbfs_report_env_test.json", 1);
  obs::ReportSession session;
  ::unsetenv("XBFS_RUN_REPORT");
  EXPECT_TRUE(session.enabled());
  EXPECT_EQ(session.output_path(), "/tmp/xbfs_report_env_test.json");

  obs::ReportSession off;
  EXPECT_FALSE(off.enabled());
}

TEST(RunReport, SchemaIsVersionedAndStable) {
  obs::RunRecord rec;
  rec.tool = "xbfs";
  rec.n = 10;
  rec.m = 20;
  rec.source = 3;
  rec.depth = 2;
  rec.total_ms = 1.5;
  rec.gteps = 0.013;
  rec.edges_traversed = 10;
  rec.config.emplace_back("alpha", "0.1");
  obs::ReportLevelRow row;
  row.level = 0;
  row.strategy = "scan-free";
  row.frontier = 1;
  rec.levels.push_back(row);
  obs::ReportKernelRow k;
  k.kernel = "xbfs_scanfree_expand";
  k.runtime_ms = 0.7;
  k.launches = 2;
  rec.kernels.push_back(k);

  std::ostringstream os;
  obs::write_run_report_json(os, {rec});
  const auto doc = testjson::parse(os.str());

  EXPECT_EQ(doc->at("schema").str, "xbfs-run-report");
  EXPECT_EQ(static_cast<int>(doc->at("version").num),
            obs::kRunReportVersion);
  const auto& run = doc->at("runs").at(0);
  EXPECT_EQ(run.at("tool").str, "xbfs");
  EXPECT_EQ(run.at("graph").at("n").num, 10.0);
  EXPECT_EQ(run.at("graph").at("m").num, 20.0);
  EXPECT_EQ(run.at("config").at("alpha").str, "0.1");
  EXPECT_EQ(run.at("levels").at(0).at("strategy").str, "scan-free");
  EXPECT_EQ(run.at("kernels").at(0).at("kernel").str,
            "xbfs_scanfree_expand");
  EXPECT_EQ(run.at("kernels").at(0).at("launches").num, 2.0);
}

TEST(RunReport, SessionContextStampsRecords) {
  obs::ReportSession session;
  session.enable();
  session.set_context("dataset", "TW");
  obs::RunRecord rec;
  rec.tool = "xbfs";
  session.add(rec);
  // A record carrying its own value for the key keeps it.
  obs::RunRecord rec2;
  rec2.tool = "xbfs";
  rec2.config.emplace_back("dataset", "explicit");
  session.add(rec2);

  const auto runs = session.snapshot();
  ASSERT_EQ(runs.size(), 2u);
  ASSERT_EQ(runs[0].config.size(), 1u);
  EXPECT_EQ(runs[0].config[0].first, "dataset");
  EXPECT_EQ(runs[0].config[0].second, "TW");
  ASSERT_EQ(runs[1].config.size(), 1u);
  EXPECT_EQ(runs[1].config[0].second, "explicit");
}

/// The acceptance-criterion invariant: run-report level rows mirror
/// BfsResult::level_stats field-for-field.
TEST(RunReport, XbfsRecordMatchesLevelStatsExactly) {
  obs::ReportSession& session = obs::ReportSession::global();
  session.clear();
  session.enable();

  const graph::Csr g = ring_graph(128);
  sim::Device dev(sim::DeviceProfile::test_profile(),
                  sim::SimOptions{.num_workers = 1});
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  const core::BfsResult r = bfs.run(0);

  const auto runs = session.snapshot();
  session.disable();
  session.clear();
  ASSERT_EQ(runs.size(), 1u);
  const obs::RunRecord& rec = runs[0];
  EXPECT_EQ(rec.tool, "xbfs");
  EXPECT_EQ(rec.n, g.num_vertices());
  EXPECT_EQ(rec.m, g.num_edges());
  EXPECT_EQ(rec.depth, r.depth);
  EXPECT_DOUBLE_EQ(rec.total_ms, r.total_ms);
  EXPECT_DOUBLE_EQ(rec.gteps, r.gteps);
  EXPECT_EQ(rec.edges_traversed, r.edges_traversed);

  ASSERT_EQ(rec.levels.size(), r.level_stats.size());
  for (std::size_t i = 0; i < rec.levels.size(); ++i) {
    const obs::ReportLevelRow& row = rec.levels[i];
    const core::LevelStats& st = r.level_stats[i];
    EXPECT_EQ(row.level, static_cast<std::int64_t>(st.level));
    EXPECT_EQ(row.strategy, core::strategy_name(st.strategy));
    EXPECT_EQ(row.nfg, st.skipped_generation);
    EXPECT_EQ(row.frontier, st.frontier_count);
    EXPECT_EQ(row.edges, st.frontier_edges);
    EXPECT_DOUBLE_EQ(row.ratio, st.ratio);
    EXPECT_DOUBLE_EQ(row.time_ms, st.time_ms);
    EXPECT_DOUBLE_EQ(row.fetch_kb, st.fetch_kb);
    EXPECT_EQ(row.kernels, st.kernels);
  }

  // Kernel aggregates cover this run's launches and carry real time.
  ASSERT_FALSE(rec.kernels.empty());
  std::uint64_t launches = 0;
  for (const auto& k : rec.kernels) launches += k.launches;
  EXPECT_GT(launches, 0u);
}

TEST(RunReport, BaselineAndDistAddRecords) {
  obs::ReportSession& session = obs::ReportSession::global();
  session.clear();
  session.enable();

  const graph::Csr g = ring_graph(64);
  {
    sim::Device dev(sim::DeviceProfile::test_profile(),
                    sim::SimOptions{.num_workers = 1});
    auto dg = graph::DeviceCsr::upload(dev, g);
    baseline::SimpleScanBfs scan(dev, dg);
    scan.run(0);
  }
  {
    shard::ShardStoreConfig sc;
    sc.shards = 2;
    sc.device_options.num_workers = 1;
    shard::ShardedStore store(g, sc);
    shard::ShardSweep sweep(store);
    session.add(sweep.run_record(0, sweep.run(0, {0, 0})));
  }

  const auto runs = session.snapshot();
  session.disable();
  session.clear();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].tool, "simple_scan");
  EXPECT_EQ(runs[1].tool, "shard_sweep");
  ASSERT_FALSE(runs[1].levels.empty());
  EXPECT_TRUE(runs[1].levels[0].has_comm);
  // Sweep rows split level time into local vs comm.
  for (const auto& row : runs[1].levels) {
    EXPECT_NEAR(row.time_ms, row.local_ms + row.comm_ms, 1e-9);
  }
}

TEST(RunReport, GtepsGuardsTrivialRuns) {
  EXPECT_DOUBLE_EQ(core::safe_gteps(100, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(core::safe_gteps(100, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(core::safe_gteps(0, 0.0), 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(core::safe_gteps(100, inf), 0.0);
  EXPECT_DOUBLE_EQ(core::safe_gteps(2'000'000, 2.0), 1.0);

  // A single-vertex graph must report finite numbers end to end.
  const graph::Csr g = graph::build_csr(1, {});
  sim::Device dev(sim::DeviceProfile::test_profile(),
                  sim::SimOptions{.num_workers = 1});
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  const core::BfsResult r = bfs.run(0);
  EXPECT_TRUE(std::isfinite(r.gteps));
}

}  // namespace
}  // namespace xbfs
