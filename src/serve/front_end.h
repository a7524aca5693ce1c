// The serving front end both serving tiers sit behind:
//
//   clients --submit()--> AdmissionQueue --(dispatch threads)--> cycle
//                              |                                   |
//                        backpressure              triage: expire past-
//                       (reject w/ reason)         deadline, serve hits
//                              |                                   |
//                  ResultCache hits resolve        backend execute(live)
//                  at submit()                                     |
//                                                  resolve(): terminal
//                                                  accounting
//
// FrontEnd owns admission (rejection reasons, the submit-time cache fast
// path), dispatch-time triage, the in-flight set, the shared stat table
// (XBFS_FRONT_END_STATS: counters, latency/modelled histograms, their
// snapshot, summary keys and metrics), terminal accounting (SLO lanes, the
// trace terminal event and span emission, flight-recorder events, context
// and dump triggers), the dispatch threads, drain and shutdown.
//
// A backend derives from it and implements execute(): it is handed the
// live queries one cycle produced and returns each through resolve(),
// completed or failed.  serve::Server's backend dedups, batches, sweeps and
// walks the degradation ladder; shard::ShardRouter's plans replicas and
// runs the distributed sweep.  See docs/serving.md.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/algorithm_engine.h"
#include "hipsim/lock_rank.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "obs/stat_table.h"
#include "serve/admission_queue.h"
#include "serve/health.h"
#include "serve/query.h"
#include "serve/result_cache.h"

namespace xbfs::serve {

/// When a front end re-validates computed payloads (per-kind host
/// validators: Graph500 level rules for BFS, relaxed-edge/partition/peeling
/// checks for SSSP/CC/k-core) before delivering/caching them.
enum class ValidateResults {
  Auto,    ///< validate iff fault injection is active (sim::FaultInjector)
  Always,
  Never,
};

/// Comma-trick helper for a backend's base-init list: an invalid config
/// throws std::invalid_argument("<what>: <reason>") before any front-end
/// member is built from it.
template <class Config>
const Config& checked(const Config& cfg, const char* what) {
  if (const xbfs::Status s = cfg.validate(); !s.ok()) {
    throw std::invalid_argument(std::string(what) + ": " + s.to_string());
  }
  return cfg;
}

/// Configuration every front end shares (ServeConfig and RouterConfig
/// derive from it; the defaults they differ in are set by their
/// constructors).
struct FrontEndConfig {
  /// Admission-queue capacity; submissions beyond it are rejected with
  /// StatusCode::QueueFull (backpressure).
  std::size_t queue_capacity;
  /// Result-cache entries across all shards; 0 disables caching.
  std::size_t cache_capacity;
  /// Deadline applied to queries that don't set their own (ms from
  /// enqueue); non-positive = none (resolve_deadline_us).
  double default_timeout_ms = -1.0;
  /// Device attempts per dispatch unit before degrading (Server: down the
  /// engine ladder; ShardRouter: each retry replans around the faulted
  /// replica, then fails).  1 = no retry.
  unsigned max_attempts = 3;
  /// Exponential backoff between retries: base * 2^(attempt-1), capped.
  double retry_backoff_ms = 0.2;
  double retry_backoff_max_ms = 5.0;
  /// Consecutive failures that open a device slot's circuit breaker, and
  /// how long the breaker rejects work before probing (serve/health.h).
  unsigned breaker_failure_threshold = 3;
  double breaker_cooldown_ms = 25.0;
  /// Result validation on the serving path (corruption detector).
  ValidateResults validate_results = ValidateResults::Auto;
  /// Tests: no dispatch threads; call dispatch_once() explicitly.
  bool manual_dispatch = false;
  /// Allocate a QueryTrace per admitted query: the causal event record
  /// plus per-rung kernel-counter attribution returned on QueryResult.
  bool query_tracing = true;
  /// SLO scope (obs::SloEngine; active only when XBFS_SLO / configure()
  /// enabled the engine) with one lane per device slot.  Front ends may
  /// share a scope name to aggregate, or use their own.
  std::string slo_scope;

  /// Reject nonsense shared settings (counts >= 1, non-negative backoffs
  /// and cooldown).
  xbfs::Status validate() const;

 protected:
  FrontEndConfig(std::size_t capacity, std::string scope)
      : queue_capacity(capacity),
        cache_capacity(capacity),
        slo_scope(std::move(scope)) {}
};

/// Per-algorithm-kind serving stats (the `<kind>_<key>` summary columns);
/// zero for kinds the front end does not serve.  Expressions run in
/// FrontEnd::algo_stats (`kind`, `wall_elapsed_ms`).
#define XBFS_ALGO_CLASS_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)               \
  COUNTER(submitted, "queries", None, "submit() calls")                        \
  COUNTER(completed, "queries", None, "resolved with a payload")               \
  COUNTER(cache_hits, "queries", None, "served from the cache")                \
  VALUE(std::uint64_t, queued, "queued", Gauge, "queries", None,               \
        "in the admission queue now", queue_.class_counters(kind).depth)       \
  HISTOGRAM(latency_ms, "ms", Wall, "enqueue -> complete")                     \
  VALUE(double, latency_p50_ms, "p50_ms", Derived, "ms", Wall,                 \
        "median of latency_ms", c.latency_ms.percentile(0.50))                 \
  VALUE(double, latency_p99_ms, "p99_ms", Derived, "ms", Wall,                 \
        "p99 of latency_ms", c.latency_ms.percentile(0.99))                    \
  VALUE(double, qps, "qps", Derived, "1/s", Wall,                              \
        "completed / wall_elapsed_ms",                                         \
        obs::ratio(s.completed, wall_elapsed_ms / 1000.0))

struct AlgoClassStats {
  XBFS_STAT_FIELDS(XBFS_ALGO_CLASS_STATS)
};

/// The stats every front end reports (ServerStats and RouterStats derive
/// from the snapshot; metrics are `<prefix>.<key>`).  VALUE expressions run
/// in FrontEnd::front_stats (`cs` = cache_.stats(), `hc` =
/// health_.counters()); REPORT expressions in FrontEnd::emit_summary.
#define XBFS_FRONT_END_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)                \
  REPORT(std::uint64_t, "queue_capacity", Gauge, "queries", Config,            \
         "admission-queue bound", fcfg_.queue_capacity)                        \
  REPORT(std::uint64_t, "cache_capacity", Gauge, "entries", Config,            \
         "cache size bound (0 = none)", fcfg_.cache_capacity)                  \
  REPORT(std::uint64_t, "max_attempts", Gauge, "attempts", Config,             \
         "device attempts per unit", fcfg_.max_attempts)                       \
  COUNTER(submitted, "queries", None, "all submit() calls")                    \
  COUNTER(accepted, "queries", None, "queued or served from cache")            \
  COUNTER(completed, "queries", None, "resolved with a payload")               \
  COUNTER(expired, "queries", None, "resolved past deadline")                  \
  COUNTER(failed, "queries", None, "futures resolved Failed")                  \
  COUNTER(rejected_full, "queries", None, "rejected: queue full")              \
  COUNTER(rejected_invalid, "queries", None,                                   \
          "rejected: kind or source invalid")                                  \
  COUNTER(rejected_shutdown, "queries", None, "rejected: shutting down")       \
  COUNTER(cache_hits, "queries", None, "queries served from the cache")        \
  VALUE(std::uint64_t, cache_evictions, "cache_evictions", Counter, "entries", \
        None, "LRU evictions", cs.evictions)                                   \
  VALUE(std::uint64_t, cache_entries, "cache_entries", Gauge, "entries", None, \
        "cache size now", cs.entries)                                          \
  VALUE(double, cache_hit_rate, "cache_hit_rate", Derived, "ratio", None,      \
        "cache_hits / completed", obs::ratio(s.cache_hits, s.completed))       \
  COUNTER(dispatch_cycles, "cycles", None, "triage + execute rounds")          \
  COUNTER(retries, "attempts", None, "re-dispatches after a failure")          \
  COUNTER(faults_seen, "faults", None, "faults + corruptions caught")          \
  COUNTER(rerouted, "attempts", None, "routed off the home slot")              \
  COUNTER(validated_results, "results", None, "passed validation")             \
  COUNTER(validation_failures, "results", None, "rejected by validation")      \
  COUNTER(degraded_queries, "queries", None,                                   \
          "served below the preferred path")                                   \
  VALUE(std::uint64_t, breaker_opens, "breaker_opens", Counter, "transitions", \
        None, "circuit-breaker opens", hc.opens)                               \
  VALUE(std::uint64_t, breaker_half_opens, "breaker_half_opens", Counter,      \
        "transitions", None, "circuit-breaker probes", hc.half_opens)          \
  VALUE(std::uint64_t, breaker_closes, "breaker_closes", Counter,              \
        "transitions", None, "circuit-breaker closes", hc.closes)              \
  COUNTER(traced_queries, "queries", None, "terminals with a QueryTrace")      \
  HISTOGRAM(latency_ms, "ms", Wall, "enqueue -> complete")                     \
  HISTOGRAM(queue_ms, "ms", Wall, "enqueue -> dispatch")                       \
  HISTOGRAM(modelled_ms, "ms", Modelled, "device time per dispatch unit")      \
  VALUE(double, wall_elapsed_ms, "wall_elapsed_ms", Gauge, "ms", Wall,         \
        "since construction", wall_us() / 1000.0)                              \
  VALUE(double, qps, "qps", Derived, "1/s", Wall,                              \
        "completed / wall_elapsed_ms",                                         \
        obs::ratio(s.completed, s.wall_elapsed_ms / 1000.0))                   \
  VALUE(std::uint64_t, modelled_units, "modelled_units", Counter, "units",     \
        Modelled, "count of modelled_ms", c.modelled_ms.count())               \
  VALUE(double, modelled_p50_ms, "modelled_p50_ms", Derived, "ms", Modelled,   \
        "median of modelled_ms", c.modelled_ms.percentile(0.50))               \
  VALUE(double, modelled_p99_ms, "modelled_p99_ms", Derived, "ms", Modelled,   \
        "p99 of modelled_ms", c.modelled_ms.percentile(0.99))                  \
  VALUE(double, latency_p50_ms, "p50_ms", Derived, "ms", Wall,                 \
        "median of latency_ms", c.latency_ms.percentile(0.50))                 \
  VALUE(double, latency_p95_ms, "p95_ms", Derived, "ms", Wall,                 \
        "p95 of latency_ms", c.latency_ms.percentile(0.95))                    \
  VALUE(double, latency_p99_ms, "p99_ms", Derived, "ms", Wall,                 \
        "p99 of latency_ms", c.latency_ms.percentile(0.99))                    \
  VALUE(double, latency_mean_ms, "mean_ms", Derived, "ms", Wall,               \
        "mean of latency_ms", c.latency_ms.mean())                             \
  VALUE(double, latency_max_ms, "max_ms", Derived, "ms", Wall,                 \
        "max of latency_ms", c.latency_ms.max())                               \
  VALUE(double, queue_p50_ms, "queue_p50_ms", Derived, "ms", Wall,             \
        "median of queue_ms", c.queue_ms.percentile(0.50))                     \
  VALUE(double, queue_p99_ms, "queue_p99_ms", Derived, "ms", Wall,             \
        "p99 of queue_ms", c.queue_ms.percentile(0.99))                        \
  REPORT(bool, "query_tracing", Gauge, "flag", Config,                         \
         "a QueryTrace per query", fcfg_.query_tracing)                        \
  REPORT(std::string, "slo_scope", Gauge, "name", Config, "SLO scope name",    \
         fcfg_.slo_scope)                                                      \
  REPORT(bool, "slo_active", Gauge, "flag", None, "the SLO engine is on",      \
         s.slo.active)                                                         \
  REPORT(std::uint64_t, "slo_good", Counter, "queries", None,                  \
         "SLO-good terminals", s.slo.total_good)                               \
  REPORT(std::uint64_t, "slo_bad", Counter, "queries", None,                   \
         "SLO-bad terminals", s.slo.total_bad)                                 \
  REPORT(std::uint64_t, "slo_slow", Counter, "queries", None,                  \
         "over the latency objective", s.slo.total_slow)                       \
  REPORT(double, "slo_budget_remaining", Gauge, "ratio", None,                 \
         "error budget left", s.slo.budget_remaining)                          \
  REPORT(bool, "slo_budget_exhausted", Gauge, "flag", None,                    \
         "error budget spent", s.slo.budget_exhausted)                         \
  REPORT(double, "slo_window_burn", Gauge, "ratio", None,                      \
         "sliding-window burn rate", s.slo.window.burn_rate)                   \
  REPORT(std::string, "slo_gcd_burns", Gauge, "ratio", None,                   \
         "per-lane burn rates, comma-separated", slo_lane_burns(s.slo))        \
  REPORT(std::uint64_t, "flight_dumps", Gauge, "dumps", None,                  \
         "flight-recorder dumps (process)",                                    \
         obs::FlightRecorder::global().dumps())

struct FrontEndStats {
  XBFS_STAT_FIELDS(XBFS_FRONT_END_STATS)
  obs::SloSnapshot slo;  ///< this front end's scope; inactive when the SLO
                         ///< engine is off
};

class FrontEnd {
 public:
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Admit a BFS query from `source`.  Cache hits resolve immediately;
  /// otherwise the query enters the admission queue, or is rejected with a
  /// reason when the queue is full / the front end is shutting down / the
  /// source is invalid.
  Admission submit(graph::vid_t source, QueryOptions opt = {});

  /// Dispatch whatever is pending right now on the caller's thread, in
  /// cycles of the size a dispatch thread would run (manual mode, but safe
  /// in threaded mode too).  Returns the number of queries popped.
  std::size_t dispatch_once();

  /// Block until every accepted query has been retired.
  void drain();

  /// Stop accepting, finish pending work, stop the dispatch threads, and
  /// emit the summary run-report record + final metrics.  Idempotent; the
  /// backends' destructors call it.
  void shutdown();

  const ResultCache& cache() const { return cache_; }

 protected:
  /// How a backend shapes its front end.
  struct Shape {
    const char* name = "";    ///< "server" / "router": messages, flight context
    const char* prefix = "";  ///< metric, span and flight-recorder namespace
    unsigned lanes = 1;       ///< health-tracked device slots = SLO lanes
    std::array<unsigned, core::kNumAlgoKinds> qos_weights{};
    unsigned threads = 1;         ///< dispatch threads (none in manual mode)
    std::size_t pop_target = 1;   ///< queries per dispatch cycle
    double window_us = 0.0;       ///< wait for a cycle to fill
    std::size_t manual_pop = 1;   ///< dispatch_once's pop
    bool serialize_cycles = false;  ///< one cycle at a time
    unsigned shards = 0;  ///< QueryResult::shards on every terminal
  };

  FrontEnd(const FrontEndConfig& cfg, const Shape& shape);
  virtual ~FrontEnd();

  /// Resolve one cycle's live queries: each must come back through
  /// resolve() exactly once before execute() returns.
  virtual void execute(std::vector<PendingQuery>& live, double dispatch_us) = 0;
  /// Name the summary record (tool, algorithm, n, m) and export the
  /// backend's stat table into it.  Called once, at shutdown.
  virtual void summarize(obs::RunRecord& r) const = 0;

  /// Register the flight-recorder context and start the dispatch threads;
  /// the last step of a backend's constructor.
  void start();

  /// Admission: reject (shutdown, unserved kind, source out of range),
  /// serve from the cache, or enqueue.  `q` must already be normalized.
  Admission admit(const core::AlgoQuery& q, const QueryOptions& opt);

  /// Terminal for a query the backend ran: `r` carries status, payload and
  /// the backend's annotations; this stamps identity and timings, counts
  /// the outcome, and hands it to the client.
  void resolve(PendingQuery&& p, QueryResult&& r, double dispatch_us,
               double complete_us);

  /// One failed device attempt: fault/validation counters, the slot's
  /// breaker, trace instant, flight-recorder event (`primary` tags it with
  /// the query/trace id when known).  Returns `why`.
  xbfs::Status note_attempt_failure(unsigned slot, const xbfs::Status& why,
                                    QueryId primary = 0);

  FrontEndStats front_stats() const;
  AlgoClassStats algo_stats(core::AlgoKind kind,
                            double wall_elapsed_ms) const;
  /// One device dispatch unit's modelled time (0 = it never ran on the
  /// device and is not observed).
  void observe_modelled(double ms);
  double modelled_sum_ms() const { return fstat_.modelled_ms.sum(); }

  double wall_us() const;
  bool validation_active() const;
  void backoff(unsigned attempt) const;
  std::uint64_t fingerprint() const {
    return graph_fp_.load(std::memory_order_acquire);
  }

  // --- set by the backend's constructor, before start() --------------------
  /// enabled_[k] <=> AlgoKind k is admitted.
  std::array<bool, core::kNumAlgoKinds> enabled_{};
  graph::vid_t n_vertices_ = 0;
  /// The fingerprint results are cached under.
  std::atomic<std::uint64_t> graph_fp_{0};
  /// Per-kind SLO scopes (null = record on the aggregate scope only).
  std::array<obs::SloScope*, core::kNumAlgoKinds> slo_by_algo_{};

  AdmissionQueue queue_;
  ResultCache cache_;
  HealthTracker health_;
  /// This front end's SLO scope; null when the engine is disabled at
  /// construction.
  obs::SloScope* slo_ = nullptr;

  struct Handles {
    XBFS_STAT_HANDLES(XBFS_FRONT_END_STATS)
  };
  /// The shared stats' handles (backends bump retries, rerouted, ...).
  Handles fstat_;
  struct AlgoHandles {
    XBFS_STAT_HANDLES(XBFS_ALGO_CLASS_STATS)
  };
  /// Per-kind handles, indexed by AlgoKind.
  std::array<AlgoHandles, core::kNumAlgoKinds> algo_stat_;

  std::atomic<bool> shut_down_{false};

 private:
  void dispatch_loop();
  /// Triage one cycle's popped queries, then execute the live ones.
  void run_cycle(std::vector<PendingQuery>& pending);
  /// Result skeleton for a query retired without running.
  QueryResult triage_result(const PendingQuery& p, double now_us) const;
  /// Cache-hit payload + counters (submit fast path and triage).
  void take_hit(QueryResult& r, CachedResult&& hit, double now_us);
  void finish_query(PendingQuery&& p, QueryResult&& r);
  void record_latency(const QueryResult& r);
  void note_terminal(QueryResult& r);
  void retire_one();
  std::uint64_t retired() const;
  /// Live-state JSON fragment sampled by the flight recorder at dump time
  /// (queue depth, breaker states, in-flight query ids).
  std::string flight_context_json() const;
  void emit_summary();
  std::string metric(const char* what) const {
    return std::string(shape_.prefix) + "." + what;
  }

  const FrontEndConfig fcfg_;
  const Shape shape_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<QueryId> next_id_{0};

  /// Flight-recorder context-provider token (0 = none registered).
  std::uint64_t flight_ctx_ = 0;
  /// Queries admitted to the queue and not yet terminal, for the flight
  /// recorder's dump context.
  mutable sim::RankedMutex inflight_mu_{64, "serve.inflight"};
  std::unordered_set<QueryId> inflight_;

  /// One cycle at a time when Shape::serialize_cycles is set.  The
  /// outermost lock of the serving stack: everything else nests inside.
  sim::RankedMutex cycle_mu_{10, "serve.cycle"};

  mutable sim::RankedMutex drain_mu_{68, "serve.drain"};
  std::condition_variable_any drain_cv_;
  /// Terminals delivered (completed + expired + failed, counted after the
  /// promise is set): drain()'s predicate.
  std::uint64_t retired_ = 0;

  std::vector<std::thread> threads_;
};

}  // namespace xbfs::serve
