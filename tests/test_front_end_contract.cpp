// Front-end contract: the admission, triage and terminal-accounting rules
// every serving front end keeps, run over a static serve::Server and a
// shard::ShardRouter (both manual-dispatch, no fault injection).
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
//   - the run-report summary record alone balances the same identities.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
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

  std::unique_ptr<serve::Server> fe;
};

/// ShardRouter over two single-replica shards.
struct RouterFront {
  static constexpr const char* kTool = "shard_router";

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

  std::unique_ptr<shard::ShardedStore> store;
  std::unique_ptr<shard::ShardRouter> fe;
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
    return std::string("contract-") + Front::kTool + "-" + test;
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

using Fronts = ::testing::Types<ServerFront, RouterFront>;
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

TYPED_TEST(FrontEndContract, SummaryRecordAloneBalancesTheAccounting) {
  const std::string path =
      ::testing::TempDir() + "front_end_contract_" + TypeParam::kTool + ".json";
  obs::ReportSession& rs = obs::ReportSession::global();
  rs.clear();
  rs.enable(path);
  const std::string scope = this->scope("summary");
  {
    TypeParam f(this->g_, 8, scope);
    std::vector<serve::Admission> adm = this->mixed_traffic(f);
    f.fe->shutdown();
  }
  rs.flush();
  rs.disable();
  rs.clear();

  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  const testjson::ValuePtr doc = testjson::parse(text.str());
  const testjson::Value* rec = nullptr;
  for (const testjson::ValuePtr& run : doc->at("runs").arr) {
    if (run->at("tool").str == TypeParam::kTool &&
        run->at("config").at("slo_scope").str == scope) {
      rec = run.get();
    }
  }
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

}  // namespace
}  // namespace xbfs
