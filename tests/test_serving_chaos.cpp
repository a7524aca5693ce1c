// Resilient-serving tests: the serving engine under injected faults.  The
// contract being verified is the acceptance bar of the resilience work —
// every admitted query completes with validated-correct levels while the
// fault injector is firing, degrading through retry -> engine ladder ->
// host CPU as needed — plus the circuit-breaker state machine itself.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/fault.h"
#include "serve/health.h"
#include "serve/server.h"

namespace xbfs::serve {
namespace {

graph::Csr toy_graph(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::rmat_csr(p);
}

/// Manual dispatch, zero batching window, zero retry backoff: each test
/// drives cycles explicitly and runs in milliseconds even when every
/// device attempt fails.
ServeConfig chaos_config() {
  ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  cfg.retry_backoff_ms = 0.0;
  cfg.breaker_cooldown_ms = 0.1;
  return cfg;
}

/// Tests own the process-wide injector and always hand it back disabled,
/// whatever the ambient XBFS_FAULTS environment configured.
class ServingChaos : public ::testing::Test {
 protected:
  void SetUp() override { sim::FaultInjector::global().disable(); }
  void TearDown() override { sim::FaultInjector::global().disable(); }

  static void inject(double kernel, double memcpy, std::uint64_t seed) {
    sim::FaultConfig fc;
    fc.kernel_fault_rate = kernel;
    fc.memcpy_corruption_rate = memcpy;
    fc.seed = seed;
    sim::FaultInjector::global().configure(fc);
  }
};

TEST_F(ServingChaos, ModerateFaultsEveryQueryCompletesCorrect) {
  const graph::Csr g = toy_graph(9, 41);
  const auto giant = graph::largest_component_vertices(g);
  ASSERT_GE(giant.size(), 8u);

  inject(/*kernel=*/0.2, /*memcpy=*/0.1, /*seed=*/11);
  Server server(g, chaos_config());

  std::vector<Admission> pending;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < 8; ++i) {
      QueryOptions qo;
      qo.bypass_cache = true;  // force a traversal (and fault draws) each time
      Admission a = server.submit(giant[i], qo);
      ASSERT_TRUE(a.accepted);
      pending.push_back(std::move(a));
    }
    server.dispatch_once();
  }

  for (std::size_t i = 0; i < pending.size(); ++i) {
    const QueryResult r = pending[i].result.get();
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
    EXPECT_TRUE(r.validated);  // Auto validation is active under injection
    // attempts counts device dispatches; it is 0 only when an open breaker
    // sent the query straight to the host rung.
    EXPECT_TRUE(r.attempts >= 1 || r.engine == "cpu-serial")
        << r.engine << " attempts=" << r.attempts;
    EXPECT_FALSE(r.engine.empty());
  }

  const ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.completed, pending.size());
  EXPECT_GT(st.validated_results, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, StragglerPenaltiesAccumulateAndTripTheBreaker) {
  const graph::Csr g = toy_graph(8, 47);
  const auto giant = graph::largest_component_vertices(g);
  ASSERT_GE(giant.size(), 6u);

  ServeConfig cfg = chaos_config();
  // Zero straggler budget: every completed device dispatch blows it.
  // Regression: the success report that follows a kept straggler result
  // used to reset the breaker's failure streak (0 -> 1 -> 0 each time),
  // so dispatch timeouts could never trip the default threshold of 3.
  cfg.dispatch_timeout_ms = 0.0;
  Server server(g, cfg);

  std::vector<Admission> pending;
  for (std::size_t i = 0; i < 6; ++i) {
    QueryOptions qo;
    qo.bypass_cache = true;  // force a fresh device dispatch per cycle
    Admission a = server.submit(giant[i], qo);
    ASSERT_TRUE(a.accepted);
    pending.push_back(std::move(a));
    server.dispatch_once();
  }
  for (auto& a : pending) {
    const QueryResult r = a.result.get();
    // Stragglers keep their results; only the health tracker is penalized.
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
  }

  const ServerStats st = server.stats();
  EXPECT_GE(st.dispatch_timeouts, 3u);
  EXPECT_GE(st.breaker_opens, 1u);
  server.shutdown();
}

TEST_F(ServingChaos, CertainCorruptionIsDetectedAndServedViaTheHost) {
  const graph::Csr g = toy_graph(9, 42);
  const auto giant = graph::largest_component_vertices(g);

  // Every device transfer corrupt: validation must reject every device
  // result and the host rung (immune to simulated faults) must serve.
  inject(/*kernel=*/0.0, /*memcpy=*/1.0, /*seed=*/12);
  Server server(g, chaos_config());

  std::vector<Admission> pending;
  for (std::size_t i = 0; i < 4; ++i) {
    Admission a = server.submit(giant[i]);
    ASSERT_TRUE(a.accepted);
    pending.push_back(std::move(a));
  }
  server.dispatch_once();

  for (auto& a : pending) {
    const QueryResult r = a.result.get();
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
    EXPECT_TRUE(r.validated);
    EXPECT_TRUE(r.degraded);
  }

  const ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.validation_failures, 0u);
  EXPECT_GT(st.host_fallbacks, 0u);
  EXPECT_GT(st.degraded_queries, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, CertainKernelFaultsDegradeToTheHostAndOpenTheBreaker) {
  const graph::Csr g = toy_graph(9, 43);
  const auto giant = graph::largest_component_vertices(g);

  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/13);
  Server server(g, chaos_config());

  Admission a = server.submit(giant[0]);
  ASSERT_TRUE(a.accepted);
  server.dispatch_once();
  const QueryResult r = a.result.get();

  ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
  EXPECT_EQ(*r.levels, graph::reference_bfs(g, giant[0]));
  EXPECT_EQ(r.engine, "cpu-serial");  // nothing device-side could finish
  EXPECT_TRUE(r.degraded);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.faults_seen, 0u);
  EXPECT_GT(st.retries, 0u);
  EXPECT_GT(st.host_fallbacks, 0u);
  EXPECT_GT(st.breaker_opens, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, WithoutHostFallbackExhaustedQueriesResolveFailed) {
  const graph::Csr g = toy_graph(9, 44);
  const auto giant = graph::largest_component_vertices(g);

  ServeConfig cfg = chaos_config();
  cfg.host_fallback = false;
  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/14);
  Server server(g, cfg);

  Admission a = server.submit(giant[0]);
  ASSERT_TRUE(a.accepted);
  server.dispatch_once();
  const QueryResult r = a.result.get();

  EXPECT_EQ(r.status, QueryStatus::Failed);
  EXPECT_FALSE(r.levels);
  EXPECT_FALSE(r.error.ok());
  // The terminal status names a resilience-path failure, not a mystery.
  const StatusCode c = r.error.code();
  EXPECT_TRUE(c == StatusCode::FaultInjected || c == StatusCode::Unavailable ||
              c == StatusCode::ResourceExhausted)
      << r.error.to_string();

  const ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, RecoveryAfterFaultsStopServesOnTheDeviceAgain) {
  const graph::Csr g = toy_graph(9, 45);
  const auto giant = graph::largest_component_vertices(g);

  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/15);
  Server server(g, chaos_config());
  Admission first = server.submit(giant[0]);
  ASSERT_TRUE(first.accepted);
  server.dispatch_once();
  EXPECT_EQ(first.result.get().engine, "cpu-serial");

  // Storm over: the breaker's cooldown (0.1 ms) elapses, the half-open
  // probe succeeds, and traffic returns to the device ladder.
  sim::FaultInjector::global().disable();
  QueryOptions qo;
  qo.bypass_cache = true;
  QueryResult back;
  for (int tries = 0; tries < 50; ++tries) {
    Admission again = server.submit(giant[1], qo);
    ASSERT_TRUE(again.accepted);
    server.dispatch_once();
    back = again.result.get();
    ASSERT_EQ(back.status, QueryStatus::Completed);
    if (back.engine != "cpu-serial") break;
  }
  EXPECT_EQ(*back.levels, graph::reference_bfs(g, giant[1]));
  EXPECT_NE(back.engine, "cpu-serial") << "breaker never closed";

  const ServerStats st = server.stats();
  EXPECT_GT(st.breaker_closes, 0u);
  server.shutdown();
}

// --- the 64-way sweep's failure paths -----------------------------------------

/// FNV-1a 64 over `text`, printed as hex.
std::string fnv_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything about one served query that does not depend on the wall
/// clock: its annotations, whether its levels are exact, and its trace's
/// rung attribution and event kinds.
std::string query_line(const graph::Csr& g, const QueryResult& r) {
  std::string s = "src=" + std::to_string(r.source) + " engine=" + r.engine +
                  " attempts=" + std::to_string(r.attempts) +
                  " degraded=" + std::to_string(r.degraded) +
                  " validated=" + std::to_string(r.validated) +
                  " gcd=" + std::to_string(r.gcd) +
                  " batch=" + std::to_string(r.batch_size) +
                  " status=" + std::to_string(static_cast<int>(r.status)) +
                  " exact=" +
                  std::to_string(r.levels != nullptr &&
                                 *r.levels == graph::reference_bfs(g, r.source));
  if (r.trace != nullptr) {
    s += " rungs=";
    for (const obs::RungAttribution& a : r.trace->rungs()) {
      s += a.engine + "/" + a.outcome + "/" +
           std::to_string(a.shared_members) + "/" + exact(a.modelled_us) + ";";
    }
    s += " events=";
    for (const obs::QueryTraceEvent& e : r.trace->events()) s += e.kind + ";";
  }
  return s + "\n";
}

/// Non-wall ServerStats fields, one "name=value" line each.
std::string stats_lines(const ServerStats& s) {
  std::string out;
  const auto put = [&](const char* name, const std::string& v) {
    out += std::string(name) + "=" + v + "\n";
  };
  const auto u = [&](const char* name, std::uint64_t v) {
    put(name, std::to_string(v));
  };
  u("submitted", s.submitted);
  u("accepted", s.accepted);
  u("completed", s.completed);
  u("expired", s.expired);
  u("failed", s.failed);
  u("cache_hits", s.cache_hits);
  u("cache_entries", s.cache_entries);
  u("dispatch_cycles", s.dispatch_cycles);
  u("retries", s.retries);
  u("faults_seen", s.faults_seen);
  u("rerouted", s.rerouted);
  u("validated_results", s.validated_results);
  u("validation_failures", s.validation_failures);
  u("degraded_queries", s.degraded_queries);
  u("breaker_opens", s.breaker_opens);
  u("breaker_half_opens", s.breaker_half_opens);
  u("breaker_closes", s.breaker_closes);
  u("traced_queries", s.traced_queries);
  u("modelled_units", s.modelled_units);
  put("modelled_p50_ms", exact(s.modelled_p50_ms));
  put("modelled_p99_ms", exact(s.modelled_p99_ms));
  u("sweeps", s.sweeps);
  u("singleton_sweeps", s.singleton_sweeps);
  u("algo_dispatches", s.algo_dispatches);
  u("computed_sources", s.computed_sources);
  put("mean_batch_occupancy", exact(s.mean_batch_occupancy));
  put("mean_sources_per_sweep", exact(s.mean_sources_per_sweep));
  put("modelled_busy_ms", exact(s.modelled_busy_ms));
  u("host_fallbacks", s.host_fallbacks);
  u("dispatch_timeouts", s.dispatch_timeouts);
  u("slo_proactive_degrades", s.slo_proactive_degrades);
  return out;
}

/// Differential guard on the sweep's device attempts: a static server on
/// one GCD lane (serial fault draws) sweeps four distinct sources per cycle
/// under seeded kernel faults and transfer corruption, with a breaker that
/// never opens (so no wall-clock cooldown decides a pick).  The cycles
/// cover a clean sweep, a faulted-then-retried sweep, a corrupted sweep
/// caught by validation, and a sweep that exhausts its attempts and
/// degrades to per-source runs.  Every member's annotations, exactness,
/// rung attribution and event kinds, plus the non-wall stats, hash to one
/// pinned value.
TEST_F(ServingChaos, SweepFailurePathsMatchPinnedHash) {
  constexpr std::uint64_t kSeed = 22;
  constexpr std::size_t kCycles = 12;
  constexpr std::size_t kWidth = 4;
  const graph::Csr g = toy_graph(9, 46);
  const auto giant = graph::largest_component_vertices(g);
  ASSERT_GE(giant.size(), kWidth * kCycles);

  ServeConfig cfg = chaos_config();
  cfg.num_gcds = 1;
  cfg.max_batch = kWidth;
  cfg.min_sweep_sources = 2;
  cfg.breaker_failure_threshold = 1u << 30;
  cfg.validate_results = ValidateResults::Auto;
  inject(/*kernel=*/0.05, /*memcpy=*/0.05, kSeed);
  // Draw sequence numbers outlive configure(); start them from zero so the
  // hash does not depend on which tests ran earlier in this process.
  sim::FaultInjector::global().reset_counters();
  Server server(g, cfg);

  std::string text;
  unsigned clean = 0, faulted = 0, corrupted = 0, exhausted = 0;
  for (std::size_t c = 0; c < kCycles; ++c) {
    std::vector<Admission> pending;
    for (std::size_t i = 0; i < kWidth; ++i) {
      QueryOptions qo;
      qo.bypass_cache = true;
      pending.push_back(server.submit(giant[c * kWidth + i], qo));
      ASSERT_TRUE(pending.back().accepted) << "replay=" << kSeed;
    }
    server.dispatch_once();
    for (std::size_t i = 0; i < kWidth; ++i) {
      const QueryResult r = pending[i].result.get();
      EXPECT_EQ(r.status, QueryStatus::Completed)
          << r.error.to_string() << " replay=" << kSeed;
      text += query_line(g, r);
      if (i != 0 || r.trace == nullptr) continue;
      // Every member absorbs the same sweep rungs; classify the cycle once.
      unsigned sweep_rungs = 0;
      bool sweep_ok = false, fault = false, corrupt = false;
      for (const obs::RungAttribution& a : r.trace->rungs()) {
        if (a.engine != "sweep") continue;
        ++sweep_rungs;
        sweep_ok |= a.outcome == "ok";
        fault |= a.outcome == "fault";
        corrupt |= a.outcome == "corrupt";
      }
      clean += sweep_ok && sweep_rungs == 1;
      faulted += sweep_ok && fault;
      corrupted += corrupt;
      exhausted += !sweep_ok && sweep_rungs == cfg.max_attempts;
    }
  }
  server.shutdown();
  text += stats_lines(server.stats());

  const std::string hash = fnv_hex(text);
  std::printf("sweep guard hash=%s clean=%u faulted=%u corrupted=%u "
              "exhausted=%u replay=%" PRIu64 "\n",
              hash.c_str(), clean, faulted, corrupted, exhausted, kSeed);
  EXPECT_GE(clean, 1u) << "replay=" << kSeed;
  EXPECT_GE(faulted, 1u) << "replay=" << kSeed;
  EXPECT_GE(corrupted, 1u) << "replay=" << kSeed;
  EXPECT_GE(exhausted, 1u) << "replay=" << kSeed;
  EXPECT_EQ(hash, "9ee6b4cf7198fdd7") << "replay=" << kSeed;
  if (::testing::Test::HasFailure()) std::printf("%s", text.c_str());
}

// --- circuit breaker state machine ------------------------------------------

TEST_F(ServingChaos, BreakerTripsCoolsProbesAndRecovers) {
  BreakerConfig bc;
  bc.failure_threshold = 3;
  bc.cooldown_ms = 5.0;
  HealthTracker h(/*num_slots=*/2, bc);

  double now = 0.0;
  EXPECT_TRUE(h.allow(0, now));
  EXPECT_EQ(h.state(0), BreakerState::Closed);

  // Two failures: still closed (threshold is 3).
  h.record_failure(0, now);
  h.record_failure(0, now);
  EXPECT_EQ(h.state(0), BreakerState::Closed);
  // A success resets the consecutive count.
  h.record_success(0);
  h.record_failure(0, now);
  h.record_failure(0, now);
  EXPECT_EQ(h.state(0), BreakerState::Closed);
  // Third consecutive failure trips it.
  h.record_failure(0, now);
  EXPECT_EQ(h.state(0), BreakerState::Open);
  EXPECT_FALSE(h.allow(0, now + 1.0e3));  // cooldown not elapsed (1 ms)

  // Cooldown elapsed: exactly one probe token is handed out.
  now = 6.0e3;  // 6 ms, past the 5 ms cooldown
  EXPECT_TRUE(h.allow(0, now));
  EXPECT_EQ(h.state(0), BreakerState::HalfOpen);
  EXPECT_FALSE(h.allow(0, now)) << "second probe granted while one is out";

  // Failed probe: straight back to Open, cooldown restarts.
  h.record_failure(0, now);
  EXPECT_EQ(h.state(0), BreakerState::Open);
  EXPECT_FALSE(h.allow(0, now + 1.0e3));

  // Next probe succeeds: fully Closed again.
  now = 12.5e3;
  EXPECT_TRUE(h.allow(0, now));
  h.record_success(0);
  EXPECT_EQ(h.state(0), BreakerState::Closed);
  EXPECT_TRUE(h.allow(0, now));

  const HealthTracker::Counters c = h.counters();
  EXPECT_EQ(c.opens, 2u);
  EXPECT_EQ(c.half_opens, 2u);
  EXPECT_EQ(c.closes, 1u);
}

TEST_F(ServingChaos, PickPrefersTheHomeSlotAndRoutesAroundOpenBreakers) {
  BreakerConfig bc;
  bc.failure_threshold = 1;
  bc.cooldown_ms = 1.0e6;  // effectively never cools down in this test
  HealthTracker h(/*num_slots=*/3, bc);

  EXPECT_EQ(h.pick(1, 0.0), 1u);  // healthy home slot wins
  h.record_failure(1, 0.0);       // threshold 1: slot 1 opens
  const unsigned rerouted = h.pick(1, 0.0);
  EXPECT_NE(rerouted, 1u);
  EXPECT_LT(rerouted, 3u);

  h.record_failure(0, 0.0);
  h.record_failure(2, 0.0);
  EXPECT_EQ(h.pick(1, 0.0), HealthTracker::kNone);  // everything open
}

}  // namespace
}  // namespace xbfs::serve
