// Front-end contract: the admission, triage and terminal-accounting rules
// every serving front end keeps, run over a static serve::Server, a
// shard::ShardRouter and a dynamic serve::Server over a durable store (all
// manual-dispatch, no fault injection).
//
//   - every submission is accepted or rejected with exactly one reason, and
//     every accepted query resolves exactly once:
//       completed + expired + failed == accepted
//       accepted + rejected_full + rejected_invalid + rejected_shutdown
//         == submitted
//   - terminals that ran no traversal (cache hits, expiries) carry
//     batch_size == 0 and record on the SLO scope's aggregate lane only;
//   - every traced terminal ends with the event named after its status;
//   - modelled p50/p99 observe each device dispatch unit once;
//   - the run-report summary record alone balances the same identities;
//   - the summary record's key set, its non-wall values and the non-wall
//     stats() fields hash to pinned values (a differential guard for any
//     change to how the stats are declared and exported).
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/fault.h"
#include "json_mini.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "serve/server.h"
#include "shard/router.h"
#include "shard/sharded_store.h"
#include "store/durability.h"

namespace xbfs {
namespace {

graph::Csr toy_graph() {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 8;
  p.seed = 41;
  return graph::rmat_csr(p);
}

/// Static Server: one GCD, two sources per cycle so repeats both dedup
/// within a cycle and hit the cache at a later cycle's triage.
struct ServerFront {
  static constexpr const char* kTool = "serve";
  static constexpr const char* kLabel = "server";
  static constexpr const char* kGuardKeys = "1c16cb2758b21d64";
  static constexpr const char* kGuardValues = "aada48b258e1ea2b";
  static constexpr const char* kGuardStats = "0b1d9df1cb86632b";

  ServerFront(const graph::Csr& g, std::size_t capacity, std::string scope) {
    serve::ServeConfig cfg;
    cfg.manual_dispatch = true;
    cfg.batch_window_ms = 0.0;
    cfg.queue_capacity = capacity;
    cfg.max_batch = 2;
    cfg.retry_backoff_ms = 0.0;
    cfg.slo_scope = std::move(scope);
    fe = std::make_unique<serve::Server>(g, cfg);
  }
  unsigned lanes() const { return fe->config().num_gcds; }
  void churn(const std::vector<graph::vid_t>&) {}

  std::unique_ptr<serve::Server> fe;
};

/// ShardRouter over two single-replica shards.
struct RouterFront {
  static constexpr const char* kTool = "shard_router";
  static constexpr const char* kLabel = "router";
  static constexpr const char* kGuardKeys = "e492640a325685d2";
  static constexpr const char* kGuardValues = "4ad761669c8720c1";
  static constexpr const char* kGuardStats = "fe79980f2acf3da2";

  RouterFront(const graph::Csr& g, std::size_t capacity, std::string scope) {
    shard::ShardStoreConfig scfg;
    scfg.shards = 2;
    scfg.device_options.num_workers = 1;
    store = std::make_unique<shard::ShardedStore>(g, scfg);
    shard::RouterConfig cfg;
    cfg.manual_dispatch = true;
    cfg.queue_capacity = capacity;
    cfg.retry_backoff_ms = 0.0;
    cfg.slo_scope = std::move(scope);
    fe = std::make_unique<shard::ShardRouter>(*store, cfg);
  }
  ~RouterFront() { fe.reset(); }  // the router goes before its store
  unsigned lanes() const { return store->num_slots(); }
  void churn(const std::vector<graph::vid_t>&) {}

  std::unique_ptr<shard::ShardedStore> store;
  std::unique_ptr<shard::ShardRouter> fe;
};

/// Dynamic Server over a durable store that spills a snapshot (and so
/// compacts) every third epoch.
struct DynamicFront {
  static constexpr const char* kTool = "serve";
  static constexpr const char* kLabel = "dynamic";
  static constexpr const char* kGuardKeys = "1c16cb2758b21d64";
  static constexpr const char* kGuardValues = "cfb374c43345f68e";
  static constexpr const char* kGuardStats = "76e90b994c869329";

  DynamicFront(const graph::Csr& g, std::size_t capacity, std::string scope)
      : base(&g),
        dir((std::filesystem::temp_directory_path() /
             ("xbfs_contract_" + scope + "_" + std::to_string(::getpid())))
                .string()) {
    std::filesystem::remove_all(dir);
    const Status s = store::open_durable({dir, /*snapshot_every=*/3}, g, {},
                                         256, &durable);
    if (!s.ok()) throw std::runtime_error(s.to_string());
    serve::ServeConfig cfg;
    cfg.manual_dispatch = true;
    cfg.batch_window_ms = 0.0;
    cfg.queue_capacity = capacity;
    cfg.max_batch = 2;
    cfg.retry_backoff_ms = 0.0;
    cfg.slo_scope = std::move(scope);
    cfg.xbfs.report_runs = false;
    fe = std::make_unique<serve::Server>(*durable.store, cfg);
  }
  ~DynamicFront() {
    fe.reset();  // the server goes before its store
    durable = {};
    std::filesystem::remove_all(dir);
  }
  unsigned lanes() const { return fe->config().num_gcds; }

  /// Three update batches (inserts, a delete of an existing edge, a no-op)
  /// so the third epoch compacts and spills, then one stale-fingerprint
  /// refusal.
  void churn(const std::vector<graph::vid_t>& giant) {
    for (std::size_t i = 0; i < 3; ++i) {
      dyn::EdgeBatch b;
      b.insert(giant[i], giant[i + 4]);
      b.insert(giant[i + 1], giant[i + 6]);
      b.erase(giant[i + 2], base->neighbors(giant[i + 2])[0]);
      b.insert(giant[i], giant[i + 4]);  // already present: a no-op
      const serve::UpdateAdmission a = fe->submit_update(b);
      if (!a.accepted) throw std::runtime_error(a.status.to_string());
    }
    if (fe->result_still_valid(0x1234567890ABCDEFull)) {
      throw std::runtime_error("a stale fingerprint was accepted");
    }
  }

  const graph::Csr* base;  ///< the store's epoch-0 graph
  std::string dir;
  store::DurableStore durable;
  std::unique_ptr<serve::Server> fe;
};

template <class Front>
class FrontEndContract : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::FaultInjector::global().disable();
    g_ = toy_graph();
    giant_ = graph::largest_component_vertices(g_);
    ASSERT_GE(giant_.size(), 8u);
  }
  void TearDown() override { sim::FaultInjector::global().disable(); }

  std::string scope(const char* test) const {
    return std::string("contract-") + Front::kLabel + "-" + test;
  }

  /// Mixed traffic: a computed query and its in-queue repeat, an expiry, an
  /// out-of-range source, a full queue, a drain, a submit-time cache hit.
  /// Leaves the front end running (callers decide when to shut down).
  std::vector<serve::Admission> mixed_traffic(Front& f) {
    std::vector<serve::Admission> out;
    auto& fe = *f.fe;
    out.push_back(fe.submit(giant_[0]));
    out.push_back(fe.submit(giant_[1]));
    out.push_back(fe.submit(giant_[0]));  // repeat: dedup or triage hit
    out.push_back(fe.submit(giant_[0]));
    serve::QueryOptions late;
    late.timeout_ms = 1e-6;  // past its deadline by dispatch time
    late.bypass_cache = true;
    out.push_back(fe.submit(giant_[2], late));
    out.push_back(fe.submit(g_.num_vertices() + 5));  // rejected invalid
    for (std::size_t i = 3; i < 6; ++i) out.push_back(fe.submit(giant_[i]));
    out.push_back(fe.submit(giant_[6]));  // queue full (capacity 8)
    fe.drain();
    out.push_back(fe.submit(giant_[0]));  // submit-time cache hit
    fe.drain();
    return out;
  }

  graph::Csr g_;
  std::vector<graph::vid_t> giant_;
};

using Fronts = ::testing::Types<ServerFront, RouterFront, DynamicFront>;
TYPED_TEST_SUITE(FrontEndContract, Fronts);

TYPED_TEST(FrontEndContract, AccountingBalancesUnderMixedTraffic) {
  TypeParam f(this->g_, 8, this->scope("accounting"));
  std::vector<serve::Admission> adm = this->mixed_traffic(f);
  f.fe->shutdown();
  adm.push_back(f.fe->submit(this->giant_[1]));  // after shutdown

  std::size_t accepted = 0, completed = 0, expired = 0, hits = 0;
  for (serve::Admission& a : adm) {
    if (!a.accepted) continue;
    ++accepted;
    const serve::QueryResult r = a.result.get();
    if (r.status == serve::QueryStatus::Completed) {
      ++completed;
      hits += r.cache_hit;
      ASSERT_TRUE(r.levels);
      EXPECT_EQ(*r.levels, graph::reference_bfs(this->g_, r.source));
    }
    if (r.status == serve::QueryStatus::Expired) ++expired;
  }
  EXPECT_EQ(adm.back().status.code(), StatusCode::ShuttingDown);

  const auto st = f.fe->stats();
  EXPECT_EQ(st.submitted, adm.size());
  EXPECT_EQ(st.accepted, accepted);
  EXPECT_EQ(st.accepted, 9u);
  EXPECT_EQ(st.completed, completed);
  EXPECT_EQ(st.expired, expired);
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.cache_hits, hits);
  EXPECT_GE(st.cache_hits, 1u);
  EXPECT_EQ(st.rejected_full, 1u);
  EXPECT_EQ(st.rejected_invalid, 1u);
  EXPECT_EQ(st.rejected_shutdown, 1u);
  EXPECT_EQ(st.completed + st.expired + st.failed, st.accepted);
  EXPECT_EQ(st.accepted + st.rejected_full + st.rejected_invalid +
                st.rejected_shutdown,
            st.submitted);
}

TYPED_TEST(FrontEndContract, TriageTerminalsRecordOnTheAggregateLane) {
  obs::SloEngine& eng = obs::SloEngine::global();
  eng.configure("availability=0.99,window_ms=600000");
  TypeParam f(this->g_, 16, this->scope("lanes"));
  auto& fe = *f.fe;

  // One computed source, then repeats served from the cache at triage
  // (queued before the publish) and at submit (after it), plus an expiry.
  std::vector<serve::Admission> adm;
  for (int i = 0; i < 3; ++i) adm.push_back(fe.submit(this->giant_[0]));
  serve::QueryOptions late;
  late.timeout_ms = 1e-6;
  late.bypass_cache = true;
  adm.push_back(fe.submit(this->giant_[1], late));
  fe.drain();
  adm.push_back(fe.submit(this->giant_[0]));
  fe.drain();

  std::uint64_t computed = 0, triaged = 0;
  for (serve::Admission& a : adm) {
    ASSERT_TRUE(a.accepted) << a.status.to_string();
    const serve::QueryResult r = a.result.get();
    if (r.cache_hit || r.status == serve::QueryStatus::Expired) {
      EXPECT_EQ(r.batch_size, 0u) << "query " << r.id;
      ++triaged;
    } else {
      EXPECT_GE(r.batch_size, 1u) << "query " << r.id;
      EXPECT_LT(r.gcd, f.lanes());
      ++computed;
    }
  }
  EXPECT_GE(triaged, 3u);  // >= 1 triage hit, the submit hit, the expiry

  const auto st = fe.stats();
  ASSERT_TRUE(st.slo.active);
  std::uint64_t on_lanes = 0;
  for (const obs::SloWindow& w : st.slo.per_gcd) on_lanes += w.good + w.bad;
  EXPECT_EQ(on_lanes, computed);
  EXPECT_EQ(st.slo.total_good + st.slo.total_bad, computed + triaged);
  EXPECT_EQ(st.slo.total_bad, 1u);  // the expiry
  fe.shutdown();
  eng.disable();
}

TYPED_TEST(FrontEndContract, EveryTracedTerminalEndsWithItsStatusEvent) {
  TypeParam f(this->g_, 8, this->scope("trace"));
  std::vector<serve::Admission> adm = this->mixed_traffic(f);
  std::uint64_t traced = 0;
  for (serve::Admission& a : adm) {
    if (!a.accepted) continue;
    const serve::QueryResult r = a.result.get();
    ASSERT_NE(r.trace, nullptr) << "query " << r.id;
    const auto events = r.trace->events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().kind, "admitted");
    EXPECT_EQ(events.back().kind, serve::query_status_name(r.status))
        << "query " << r.id;
    ++traced;
  }
  EXPECT_EQ(f.fe->stats().traced_queries, traced);
  f.fe->shutdown();
}

TYPED_TEST(FrontEndContract, ModelledPercentilesCoverEveryDeviceDispatch) {
  TypeParam f(this->g_, 16, this->scope("modelled"));
  serve::QueryOptions fresh;
  fresh.bypass_cache = true;
  std::vector<serve::Admission> adm;
  for (std::size_t i = 0; i < 6; ++i) {
    adm.push_back(f.fe->submit(this->giant_[i], fresh));
  }
  f.fe->drain();
  for (serve::Admission& a : adm) {
    ASSERT_EQ(a.result.get().status, serve::QueryStatus::Completed);
  }

  const auto st = f.fe->stats();
  EXPECT_GT(st.modelled_p50_ms, 0.0);
  EXPECT_LE(st.modelled_p50_ms, st.modelled_p99_ms);
  // One observation per device dispatch unit: every query here is its own
  // unit (a Server singleton, a ShardRouter sweep).
  EXPECT_EQ(st.modelled_units, st.sweeps);
  EXPECT_EQ(st.modelled_units, adm.size());
  if constexpr (std::is_same_v<TypeParam, ServerFront>) {
    EXPECT_EQ(st.modelled_units, st.singleton_sweeps);
  }
  f.fe->shutdown();
}

/// Integer summary key of a run record's config object.
std::uint64_t key_u64(const testjson::Value& cfg, const std::string& key) {
  return static_cast<std::uint64_t>(std::stoull(cfg.at(key).str));
}

/// Run `traffic` against a fresh front end with XBFS_RUN_REPORT on, shut it
/// down, and return the parsed report (the summary record is the run whose
/// tool and slo_scope match).
template <class Front, class Traffic>
testjson::ValuePtr run_and_report(const graph::Csr& g,
                                  const std::string& scope,
                                  Traffic&& traffic) {
  // One file per process: ctest runs this fixture's tests side by side.
  const std::string path = ::testing::TempDir() + "front_end_contract_" +
                           Front::kLabel + "_" +
                           std::to_string(::getpid()) + ".json";
  obs::ReportSession& rs = obs::ReportSession::global();
  rs.clear();
  rs.enable(path);
  {
    Front f(g, 8, scope);
    traffic(f);
  }
  rs.flush();
  rs.disable();
  rs.clear();

  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  return testjson::parse(text.str());
}

const testjson::Value* summary_record(const testjson::Value& doc,
                                      const char* tool,
                                      const std::string& scope) {
  const testjson::Value* rec = nullptr;
  for (const testjson::ValuePtr& run : doc.at("runs").arr) {
    if (run->at("tool").str == tool &&
        run->at("config").at("slo_scope").str == scope) {
      rec = run.get();
    }
  }
  return rec;
}

TYPED_TEST(FrontEndContract, SummaryRecordAloneBalancesTheAccounting) {
  const std::string scope = this->scope("summary");
  const testjson::ValuePtr doc =
      run_and_report<TypeParam>(this->g_, scope, [&](TypeParam& f) {
        this->mixed_traffic(f);
        f.fe->shutdown();
      });
  const testjson::Value* rec = summary_record(*doc, TypeParam::kTool, scope);
  ASSERT_NE(rec, nullptr) << "no " << TypeParam::kTool << " summary record";
  const testjson::Value& cfg = rec->at("config");
  for (const char* key :
       {"submitted", "accepted", "completed", "expired", "failed",
        "rejected_full", "rejected_invalid", "rejected_shutdown",
        "cache_hits", "wall_elapsed_ms", "traced_queries"}) {
    EXPECT_TRUE(cfg.has(key)) << TypeParam::kTool << " summary lacks " << key;
  }
  if (::testing::Test::HasFailure()) return;
  EXPECT_EQ(key_u64(cfg, "completed") + key_u64(cfg, "expired") +
                key_u64(cfg, "failed"),
            key_u64(cfg, "accepted"));
  EXPECT_EQ(key_u64(cfg, "accepted") + key_u64(cfg, "rejected_full") +
                key_u64(cfg, "rejected_invalid") +
                key_u64(cfg, "rejected_shutdown"),
            key_u64(cfg, "submitted"));
  EXPECT_EQ(key_u64(cfg, "submitted"), 11u);
  EXPECT_EQ(key_u64(cfg, "expired"), 1u);
  EXPECT_GT(std::stod(cfg.at("wall_elapsed_ms").str), 0.0);
}

/// FNV-1a 64 over "name=value" lines (sorted by name), printed as hex.
std::string hash_lines(const std::map<std::string, std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [name, value] : lines) {
    for (const char c : name + "=" + value + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// Non-wall stats() fields by name (doubles exact).
class Pins {
 public:
  void operator()(const std::string& name, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    lines_[name] = buf;
  }
  void operator()(const std::string& name, std::uint64_t v) {
    lines_[name] = std::to_string(v);
  }
  void operator()(const std::string& name, bool v) { lines_[name] = v ? "1" : "0"; }
  const std::map<std::string, std::string>& lines() const { return lines_; }

 private:
  std::map<std::string, std::string> lines_;
};

void pin_front(Pins& p, const serve::FrontEndStats& s) {
  p("submitted", s.submitted);
  p("accepted", s.accepted);
  p("completed", s.completed);
  p("expired", s.expired);
  p("failed", s.failed);
  p("rejected_full", s.rejected_full);
  p("rejected_invalid", s.rejected_invalid);
  p("rejected_shutdown", s.rejected_shutdown);
  p("cache_hits", s.cache_hits);
  p("cache_evictions", s.cache_evictions);
  p("cache_entries", s.cache_entries);
  p("cache_hit_rate", s.cache_hit_rate);
  p("dispatch_cycles", s.dispatch_cycles);
  p("retries", s.retries);
  p("faults_seen", s.faults_seen);
  p("rerouted", s.rerouted);
  p("validated_results", s.validated_results);
  p("validation_failures", s.validation_failures);
  p("degraded_queries", s.degraded_queries);
  p("breaker_opens", s.breaker_opens);
  p("breaker_half_opens", s.breaker_half_opens);
  p("breaker_closes", s.breaker_closes);
  p("traced_queries", s.traced_queries);
  p("slo.active", s.slo.active);
  p("slo.total_good", s.slo.total_good);
  p("slo.total_bad", s.slo.total_bad);
  p("modelled_units", s.modelled_units);
  p("modelled_p50_ms", s.modelled_p50_ms);
  p("modelled_p99_ms", s.modelled_p99_ms);
}

void pin_stats(Pins& p, const serve::ServerStats& s) {
  pin_front(p, s);
  p("sweeps", s.sweeps);
  p("singleton_sweeps", s.singleton_sweeps);
  p("algo_dispatches", s.algo_dispatches);
  p("computed_sources", s.computed_sources);
  p("mean_sources_per_sweep", s.mean_sources_per_sweep);
  p("mean_batch_occupancy", s.mean_batch_occupancy);
  for (std::size_t k = 0; k < core::kNumAlgoKinds; ++k) {
    const std::string kind =
        core::algo_kind_name(static_cast<core::AlgoKind>(k));
    p(kind + ".submitted", s.per_algo[k].submitted);
    p(kind + ".completed", s.per_algo[k].completed);
    p(kind + ".cache_hits", s.per_algo[k].cache_hits);
    p(kind + ".queued", s.per_algo[k].queued);
  }
  p("host_fallbacks", s.host_fallbacks);
  p("dispatch_timeouts", s.dispatch_timeouts);
  p("slo_proactive_degrades", s.slo_proactive_degrades);
  p("updates_submitted", s.updates_submitted);
  p("updates_applied", s.updates_applied);
  p("updates_expired", s.updates_expired);
  p("update_edges_applied", s.update_edges_applied);
  p("update_noops", s.update_noops);
  p("graph_epoch", s.graph_epoch);
  p("compactions", s.compactions);
  p("cache_epoch_bumps", s.cache_epoch_bumps);
  p("cache_purged_stale", s.cache_purged_stale);
  p("cache_stale_hits_avoided", s.cache_stale_hits_avoided);
  p("repairs", s.repairs);
  p("recomputes", s.recomputes);
  p("repair_fallbacks", s.repair_fallbacks);
  p("durable", s.durable);
  p("wal_appends", s.wal_appends);
  p("wal_append_failures", s.wal_append_failures);
  p("wal_fsync_failures", s.wal_fsync_failures);
  p("wal_bytes", s.wal_bytes);
  p("snapshots_spilled", s.snapshots_spilled);
  p("wal_rotations", s.wal_rotations);
  p("last_durable_epoch", s.last_durable_epoch);
  p("updates_rejected_durability", s.updates_rejected_durability);
  p("recovered", s.recovered);
  p("recovery_torn_tail", s.recovery_torn_tail);
  p("recovered_epoch", s.recovered_epoch);
  p("recovery_replayed", s.recovery_replayed);
  p("recovery_truncated_bytes", s.recovery_truncated_bytes);
  p("recovery_stale_rejected", s.recovery_stale_rejected);
  p("modelled_busy_ms", s.modelled_busy_ms);
}

void pin_stats(Pins& p, const shard::RouterStats& s) {
  pin_front(p, s);
  p("sweeps", s.sweeps);
  p("partial_queries", s.partial_queries);
  p("lost_shard_events", s.lost_shard_events);
  p("unavailable_failures", s.unavailable_failures);
  p("levels_swept", s.levels_swept);
  p("two_phase_levels", s.two_phase_levels);
  p("exchange_raw_bytes", s.exchange_raw_bytes);
  p("exchange_wire_bytes", s.exchange_wire_bytes);
  p("compression_ratio", s.compression_ratio);
  p("modelled_total_ms", s.modelled_total_ms);
}

/// Summary keys on the wall clock: their values vary run to run.
bool wall_summary_key(const std::string& key) {
  static const char* const kWall[] = {
      "wall_elapsed_ms", "qps",    "p50_ms",       "p95_ms",
      "p99_ms",          "mean_ms", "max_ms",      "queue_p50_ms",
      "queue_p99_ms"};
  for (const char* w : kWall) {
    if (key == w) return true;
  }
  // Per-kind latency and throughput columns: "<kind>_p50_ms", ...
  for (const char* suffix : {"_p50_ms", "_p99_ms", "_qps"}) {
    const std::string sfx = suffix;
    if (key.size() > sfx.size() &&
        key.compare(key.size() - sfx.size(), sfx.size(), sfx) == 0) {
      return true;
    }
  }
  return false;
}

/// Differential guard on the stats plumbing: mixed traffic, then (dynamic
/// front end) churn with a compaction and a stale-fingerprint refusal, then
/// a second round of reads.  Pins the sorted key set of the shutdown
/// summary record, every non-wall summary value, and every non-wall
/// stats() field, each as one hash.
TYPED_TEST(FrontEndContract, SummaryAndStatsMatchPinnedHashes) {
  const std::string scope = this->scope("pinned");
  Pins pins;
  const testjson::ValuePtr doc =
      run_and_report<TypeParam>(this->g_, scope, [&](TypeParam& f) {
        this->mixed_traffic(f);
        f.churn(this->giant_);
        std::vector<serve::Admission> after;
        for (std::size_t i = 0; i < 4; ++i) {
          after.push_back(f.fe->submit(this->giant_[i]));
        }
        f.fe->drain();
        for (serve::Admission& a : after) {
          ASSERT_TRUE(a.accepted) << a.status.to_string();
          EXPECT_EQ(a.result.get().status, serve::QueryStatus::Completed);
        }
        f.fe->shutdown();
        pin_stats(pins, f.fe->stats());
      });
  const testjson::Value* rec = summary_record(*doc, TypeParam::kTool, scope);
  ASSERT_NE(rec, nullptr) << "no " << TypeParam::kTool << " summary record";

  // Keys the stat table added to the record (stats() fields the
  // hand-written summary used to drop): present, and left out of the
  // hashes so those stay comparable with the hand-written summary's.
  std::vector<std::string> added = {"cache_entries"};
  if (std::string(TypeParam::kTool) == "serve") {
    for (const char* key : {"updates_submitted", "wal_bytes", "bfs_queued"}) {
      added.push_back(key);
    }
  }
  const testjson::Value& cfg = rec->at("config");
  for (const std::string& key : added) {
    EXPECT_TRUE(cfg.has(key)) << TypeParam::kTool << " summary lacks " << key;
  }
  std::map<std::string, std::string> keys, values;
  for (const auto& [key, value] : cfg.obj) {
    if (std::find(added.begin(), added.end(), key) != added.end()) continue;
    keys[key] = "";
    if (!wall_summary_key(key)) values[key] = value->str;
  }
  const std::string key_hash = hash_lines(keys);
  const std::string value_hash = hash_lines(values);
  const std::string stats_hash = hash_lines(pins.lines());
  std::printf("guard %s keys=%s values=%s stats=%s\n", TypeParam::kLabel,
              key_hash.c_str(), value_hash.c_str(), stats_hash.c_str());
  EXPECT_EQ(key_hash, TypeParam::kGuardKeys);
  EXPECT_EQ(value_hash, TypeParam::kGuardValues);
  EXPECT_EQ(stats_hash, TypeParam::kGuardStats);
  if (::testing::Test::HasFailure()) {
    for (const auto& [key, value] : values) {
      std::printf("  summary %s=%s\n", key.c_str(), value.c_str());
    }
    for (const auto& [name, value] : pins.lines()) {
      std::printf("  stats %s=%s\n", name.c_str(), value.c_str());
    }
  }
}

}  // namespace
}  // namespace xbfs
