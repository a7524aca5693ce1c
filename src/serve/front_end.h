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
// path), dispatch-time triage, the in-flight set, the shared counters and
// latency/modelled histograms, terminal accounting (SLO lanes, the trace
// terminal event and span emission, flight-recorder events, context and
// dump triggers), the dispatch threads, drain and shutdown, and the shared
// half of the stats snapshot and the run-report summary.
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
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/slo.h"
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

/// "%.6g" rendering of trace details and run-report summary values.
std::string fmt_double(double v);

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
  unsigned cache_shards = 8;
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

/// Per-algorithm-kind serving counters + latency snapshot; zero for kinds
/// the front end does not serve.
struct AlgoClassStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t queued = 0;       ///< currently in the admission queue
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double qps = 0.0;               ///< completed / wall elapsed
};

/// Counters + latency snapshot every front end reports (ServerStats and
/// RouterStats derive from it); docs/serving.md has the glossary.
struct FrontEndStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;   ///< entered the queue or hit the cache
  std::uint64_t completed = 0;  ///< futures resolved with a payload
  std::uint64_t expired = 0;    ///< futures resolved past-deadline
  std::uint64_t failed = 0;     ///< futures resolved Failed
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_shutdown = 0;

  std::uint64_t cache_hits = 0;    ///< queries served from cache
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  double cache_hit_rate = 0.0;     ///< cache_hits / completed

  std::uint64_t dispatch_cycles = 0;      ///< triage + execute rounds run
  std::uint64_t retries = 0;              ///< re-dispatches after a failure
  std::uint64_t faults_seen = 0;          ///< injected faults caught
  std::uint64_t rerouted = 0;             ///< work routed off its home slot
  std::uint64_t validated_results = 0;    ///< results that passed validation
  std::uint64_t validation_failures = 0;  ///< results rejected by validation
  std::uint64_t degraded_queries = 0;     ///< served below the preferred path
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;

  std::uint64_t traced_queries = 0;  ///< terminals carrying a trace
  obs::SloSnapshot slo;              ///< this front end's scope; inactive
                                     ///< when the SLO engine is off

  double wall_elapsed_ms = 0.0;
  double qps = 0.0;                 ///< completed / wall_elapsed
  /// Modelled device time per device dispatch unit (a Server sweep,
  /// singleton or algorithm run; a ShardRouter sweep), observed once per
  /// unit that ran on the simulated device.
  std::uint64_t modelled_units = 0;
  double modelled_p50_ms = 0.0;
  double modelled_p99_ms = 0.0;

  double latency_p50_ms = 0.0;      ///< enqueue -> complete (wall)
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;
  double queue_p50_ms = 0.0;        ///< enqueue -> dispatch (wall)
  double queue_p99_ms = 0.0;
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
  /// Name the summary record (tool, algorithm, n, m), append the backend's
  /// own keys and set its own final gauges.  Called once, at shutdown.
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
  AlgoClassStats algo_stats(core::AlgoKind k, double wall_elapsed_ms) const;
  /// One device dispatch unit's modelled time (0 = it never ran on the
  /// device and is not observed).
  void observe_modelled(double ms);
  double modelled_sum_ms() const { return modelled_ms_.sum(); }

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

  // Counters the backends bump (relaxed).
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> faults_seen_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> validated_results_{0};
  std::atomic<std::uint64_t> validation_failures_{0};

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

  // Monotonic counters (relaxed; exact totals are read under drain_mu_).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> retired_{0};  ///< completed + expired + failed
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_invalid_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> dispatch_cycles_{0};
  std::atomic<std::uint64_t> degraded_queries_{0};
  std::atomic<std::uint64_t> traced_{0};
  // Per-kind counters, indexed by AlgoKind.
  std::array<std::atomic<std::uint64_t>, core::kNumAlgoKinds>
      submitted_by_algo_{};
  std::array<std::atomic<std::uint64_t>, core::kNumAlgoKinds>
      completed_by_algo_{};
  std::array<std::atomic<std::uint64_t>, core::kNumAlgoKinds>
      cache_hits_by_algo_{};

  obs::Histogram latency_ms_;   ///< enqueue -> complete (wall)
  obs::Histogram queue_ms_;     ///< enqueue -> dispatch (wall)
  obs::Histogram modelled_ms_;  ///< per device dispatch unit (modelled)
  /// Per-kind enqueue -> complete latency (indexed by AlgoKind).
  std::array<obs::Histogram, core::kNumAlgoKinds> latency_by_algo_;

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

  std::vector<std::thread> threads_;
};

}  // namespace xbfs::serve
