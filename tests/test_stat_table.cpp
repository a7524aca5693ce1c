// Declarative stat tables (obs/stat_table.h): value rendering, the
// `<prefix>.<key>` metrics export, duplicate keys, concurrent bumps against
// snapshots, and docs/observability.md's stat table against every table the
// serving stack and the dynamic engines declare.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dyn/incremental_bfs.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/stat_table.h"
#include "serve/front_end.h"
#include "serve/server.h"
#include "shard/router.h"

namespace xbfs {
namespace {

#define XBFS_TEST_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)                    \
  REPORT(std::uint64_t, "capacity", Gauge, "items", Config, "bound", cap)     \
  COUNTER(hits, "items", None, "hits")                                        \
  COUNTER(misses, "items", None, "misses")                                    \
  HISTOGRAM(latency_ms, "ms", Wall, "per lookup")                             \
  VALUE(double, hit_rate, "hit_rate", Derived, "ratio", None, "hits / all",   \
        obs::ratio(s.hits, s.hits + s.misses))                                \
  VALUE(double, big, "big", Gauge, "items", None, "a large double", 1234567.0) \
  VALUE(bool, warm, "warm", Gauge, "flag", None, "any hit", s.hits > 0)       \
  REPORT(bool, "cold", Gauge, "flag", None, "no hit", s.hits == 0)            \
  REPORT(std::string, "label", Gauge, "name", Config, "a name", label)

struct TestStats {
  XBFS_STAT_FIELDS(XBFS_TEST_STATS)
};

/// A minimal owner of XBFS_TEST_STATS, shaped like the serving classes.
struct TestOwner {
  struct Handles {
    XBFS_STAT_HANDLES(XBFS_TEST_STATS)
  };
  Handles stat;
  std::uint64_t cap = 8;
  std::string label = "t0";

  TestStats stats() const {
    TestStats s;
    const Handles& c = stat;
    XBFS_STAT_LOAD(XBFS_TEST_STATS)
    return s;
  }
  obs::RunRecord summary() const {
    obs::RunRecord r;
    const TestStats s = stats();
    const Handles& c = stat;
    const obs::StatExport f(r, "stat_test", "t_");
    XBFS_STAT_VISIT(XBFS_TEST_STATS)
    return r;
  }
};

std::map<std::string, std::string> config_of(const obs::RunRecord& r) {
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : r.config) {
    EXPECT_TRUE(out.emplace(key, value).second) << "duplicate key " << key;
  }
  return out;
}

TEST(StatTable, SummaryRendersDoublesAsSixDigitsAndBoolsAsOneZero) {
  TestOwner o;
  o.stat.hits.add();
  o.stat.misses.add(2);
  const std::map<std::string, std::string> cfg = config_of(o.summary());
  EXPECT_EQ(cfg.at("t_capacity"), "8");
  EXPECT_EQ(cfg.at("t_hits"), "1");
  EXPECT_EQ(cfg.at("t_misses"), "2");
  EXPECT_EQ(cfg.at("t_hit_rate"), "0.333333");
  EXPECT_EQ(cfg.at("t_big"), "1.23457e+06");
  EXPECT_EQ(cfg.at("t_warm"), "1");
  EXPECT_EQ(cfg.at("t_cold"), "0");
  EXPECT_EQ(cfg.at("t_label"), "t0");
  // Histograms are metrics only.
  EXPECT_EQ(cfg.count("t_latency_ms"), 0u);
  EXPECT_EQ(cfg.size(), 8u);
  EXPECT_EQ(obs::fmt_double(0.1), "0.1");
  EXPECT_EQ(obs::fmt_double(2.0 / 3.0), "0.666667");
}

TEST(StatTable, MetricsExportUsesPrefixDotKey) {
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  mx.reset();
  mx.enable();
  TestOwner o;
  o.stat.hits.add(3);
  o.stat.misses.add();
  o.stat.latency_ms.observe(2.0);
  o.stat.latency_ms.observe(4.0);
  (void)o.summary();
  (void)o.summary();  // counters add, gauges set, histograms merge
  EXPECT_EQ(mx.counter("stat_test.t_hits").value(), 6u);
  EXPECT_EQ(mx.counter("stat_test.t_misses").value(), 2u);
  EXPECT_DOUBLE_EQ(mx.gauge("stat_test.t_hit_rate").value(), 0.75);
  EXPECT_DOUBLE_EQ(mx.gauge("stat_test.t_warm").value(), 1.0);
  EXPECT_EQ(mx.histogram("stat_test.t_latency_ms").count(), 4u);
  EXPECT_DOUBLE_EQ(mx.histogram("stat_test.t_latency_ms").sum(), 12.0);
  EXPECT_DOUBLE_EQ(mx.histogram("stat_test.t_latency_ms").max(), 4.0);
  // Config rows and strings are not metrics.
  std::ostringstream text;
  mx.write_text(text);
  EXPECT_EQ(text.str().find("stat_test.t_capacity"), std::string::npos);
  EXPECT_EQ(text.str().find("stat_test.t_label"), std::string::npos);
  mx.disable();
  mx.reset();
}

/// True iff no key repeats across `tables` (tables that write into one
/// summary record are checked together).
bool keys_unique(const std::vector<std::vector<obs::StatDef>>& tables) {
  std::map<std::string, int> seen;
  for (const auto& t : tables) {
    for (const obs::StatDef& d : t) {
      if (++seen[d.key] > 1) {
        ADD_FAILURE() << "stat key " << d.key << " is declared twice";
        return false;
      }
    }
  }
  return true;
}

#define XBFS_DUP_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)                   \
  COUNTER(hits, "items", None, "hits")                                      \
  REPORT(std::uint64_t, "hits", Gauge, "items", None, "hits, again", 0)

TEST(StatTable, DuplicateKeyInOneTableFails) {
  EXPECT_NONFATAL_FAILURE(
      EXPECT_FALSE(keys_unique({{XBFS_STAT_ROWS(XBFS_DUP_STATS)}})),
      "stat key hits is declared twice");
  EXPECT_TRUE(keys_unique({{XBFS_STAT_ROWS(XBFS_TEST_STATS)}}));
}

TEST(StatTable, ConcurrentBumpsGiveMonotonicSnapshotsAndExactTotals) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kBumps = 20000;
  TestOwner o;
  std::atomic<bool> done{false};
  std::uint64_t snapshots = 0;
  std::thread reader([&] {
    TestStats prev;
    while (!done.load(std::memory_order_acquire)) {
      const TestStats s = o.stats();
      ASSERT_GE(s.hits, prev.hits);
      ASSERT_GE(s.misses, prev.misses);
      prev = s;
      ++snapshots;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&o] {
      for (std::uint64_t i = 0; i < kBumps; ++i) {
        o.stat.hits.add();
        o.stat.misses.add(2);
        if (i % 64 == 0) o.stat.latency_ms.observe(1.0);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const TestStats s = o.stats();
  EXPECT_EQ(s.hits, kThreads * kBumps);
  EXPECT_EQ(s.misses, 2 * kThreads * kBumps);
  EXPECT_EQ(o.stat.latency_ms.count(), kThreads * ((kBumps + 63) / 64));
  EXPECT_GT(snapshots, 0u);
}

const char* kind_name(obs::StatKind k) {
  switch (k) {
    case obs::StatKind::Counter: return "counter";
    case obs::StatKind::Gauge: return "gauge";
    case obs::StatKind::Histogram: return "histogram";
    case obs::StatKind::Derived: return "derived";
  }
  return "?";
}

const char* clock_name(obs::StatClock c) {
  switch (c) {
    case obs::StatClock::None: return "none";
    case obs::StatClock::Wall: return "wall";
    case obs::StatClock::Modelled: return "modelled";
    case obs::StatClock::Config: return "config";
  }
  return "?";
}

/// One docs row: kind, unit, clock, help.
using DocRow = std::tuple<std::string, std::string, std::string, std::string>;

/// The `| \`table\` | \`key\` | kind | unit | clock | help |` rows of
/// docs/observability.md whose table is in `tables`, keyed by (table, key).
std::map<std::pair<std::string, std::string>, DocRow> docs_rows(
    const std::set<std::string>& tables) {
  std::ifstream in(std::string(XBFS_SOURCE_DIR) + "/docs/observability.md");
  EXPECT_TRUE(in.good()) << "cannot open docs/observability.md";
  std::map<std::pair<std::string, std::string>, DocRow> rows;
  const auto unquote = [](std::string s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '`')) s.erase(0, 1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '`')) s.pop_back();
    return s;
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::stringstream ss(line.substr(1));
    for (std::string cell; std::getline(ss, cell, '|');) {
      cells.push_back(unquote(cell));
    }
    if (cells.size() < 6 || tables.count(cells[0]) == 0) continue;
    EXPECT_TRUE(rows.emplace(std::make_pair(cells[0], cells[1]),
                             DocRow{cells[2], cells[3], cells[4], cells[5]})
                    .second)
        << "docs list " << cells[0] << " " << cells[1] << " twice";
  }
  return rows;
}

TEST(StatTable, DocsTableMatchesEveryDeclaredStat) {
  const std::vector<std::pair<const char*, std::vector<obs::StatDef>>> tables =
      {{"front_end", {XBFS_STAT_ROWS(XBFS_FRONT_END_STATS)}},
       {"algo_class", {XBFS_STAT_ROWS(XBFS_ALGO_CLASS_STATS)}},
       {"server", {XBFS_STAT_ROWS(XBFS_SERVER_STATS)}},
       {"router", {XBFS_STAT_ROWS(XBFS_ROUTER_STATS)}},
       {"dyn_engine", {XBFS_STAT_ROWS(XBFS_DYN_ENGINE_STATS)}}};
  // Tables that share one summary record share its key space.
  EXPECT_TRUE(keys_unique({tables[0].second, tables[2].second}));
  EXPECT_TRUE(keys_unique({tables[0].second, tables[3].second}));
  for (std::size_t t = 1; t < tables.size(); ++t) {
    EXPECT_TRUE(keys_unique({tables[t].second}));
  }

  std::set<std::string> names;
  for (const auto& t : tables) names.insert(t.first);
  std::map<std::pair<std::string, std::string>, DocRow> docs =
      docs_rows(names);
  std::string expected;
  bool ok = true;
  for (const auto& [table, rows] : tables) {
    for (const obs::StatDef& d : rows) {
      const DocRow want{kind_name(d.kind), d.unit, clock_name(d.clock),
                        d.help};
      expected += std::string("| `") + table + "` | `" + d.key + "` | " +
                  kind_name(d.kind) + " | " + d.unit + " | " +
                  clock_name(d.clock) + " | " + d.help + " |\n";
      const auto it = docs.find({table, d.key});
      if (it == docs.end()) {
        ADD_FAILURE() << table << " stat " << d.key
                      << " is missing from docs/observability.md";
        ok = false;
        continue;
      }
      if (it->second != want) {
        ADD_FAILURE() << table << " stat " << d.key << ": docs say "
                      << std::get<0>(it->second) << "/"
                      << std::get<1>(it->second) << "/"
                      << std::get<2>(it->second) << "/"
                      << std::get<3>(it->second) << ", the table says "
                      << std::get<0>(want) << "/" << std::get<1>(want) << "/"
                      << std::get<2>(want) << "/" << std::get<3>(want)
                      << " (kind/unit/clock/help)";
        ok = false;
      }
      docs.erase(it);
    }
  }
  for (const auto& [id, row] : docs) {
    ADD_FAILURE() << "docs/observability.md lists " << id.first << " stat "
                  << id.second << ", which no table declares";
    ok = false;
  }
  if (!ok) std::printf("The declared stat table:\n%s", expected.c_str());
}

}  // namespace
}  // namespace xbfs
