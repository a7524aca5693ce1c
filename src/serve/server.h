// The query-serving engine: turns the offline XBFS reproduction into a
// traffic-handling system for the whole algorithm family.
//
//   clients --submit()--> AdmissionQueue --(scheduler thread)--> batches
//                              |  (QoS-classed, weighted drain)      |
//                        backpressure                    sim::ThreadPool, one
//                       (reject w/ reason)               simulated GCD/worker
//                                                                   |
//                  ResultCache <--publish-- multi_source_bfs (<=64-way sweep),
//                       |                   per-kind AlgorithmEngine ladders
//                  hits resolve             (core::EngineRegistry)
//                  at submit()
//
// One server admits core::AlgoQuery of every kind listed in
// ServeConfig::algos.  BFS keeps its historical fast path — dedup by
// source, neighborhood grouping, the 64-way bit-parallel sweep.  Every
// other kind dispatches as its own unit, deduplicated by
// (algo, params-hash, source): concurrent identical SSSP queries share one
// delta-stepping run exactly like repeated BFS sources share a sweep, and
// whole-graph kinds (CC, k-core, SCC) dedup per graph.  Each kind resolves
// through its own degradation ladder built from the EngineRegistry
// (device rungs in rung order, then the registered host oracle as the
// fault-immune terminal rung), so the resilience machinery — retries,
// breakers, validation, SLO-aware degrades — is shared by all kinds.
//
// Admission, the scheduler's weighted round-robin drain across QoS classes
// (one class per algorithm kind; ServeConfig::qos_weights), deadline and
// cache triage, terminal accounting and lifecycle are the shared
// serve::FrontEnd (serve/front_end.h); this class is its batching backend,
// dispatching each cycle's units across the GCD worker pool.  Every
// query's end-to-end latency feeds both the aggregate and a per-kind
// p50/p95/p99 histogram; shutdown() emits one summary record with
// per-kind completed/p99/QPS columns into XBFS_RUN_REPORT.
//
// Served payloads are bit-identical to a fresh engine run: every
// registered engine of a kind is conformant with its host oracle (the
// cross-engine conformance suite enforces it), and cache hits alias the
// very vectors a cold run produced.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/algorithm_engine.h"
#include "core/engine_registry.h"
#include "core/xbfs.h"
#include "dyn/device_mirror.h"
#include "dyn/graph_store.h"
#include "graph/device_csr.h"
#include "hipsim/lock_rank.h"
#include "hipsim/thread_pool.h"
#include "serve/front_end.h"


namespace xbfs::serve {

struct ServeConfig : FrontEndConfig {
  ServeConfig() : FrontEndConfig(/*capacity=*/4096, /*scope=*/"serve") {}

  /// Simulated GCDs served concurrently (one worker thread drives each).
  unsigned num_gcds = 1;
  /// Sources per bit-parallel sweep; clamped to [1, 64].
  unsigned max_batch = 64;
  /// Cost-aware dispatch: batches narrower than this run as per-source
  /// adaptive core::Xbfs traversals (spread across the GCD lanes) instead
  /// of one bit-parallel sweep.  The sweep pays a large fixed cost — it
  /// scans the full vertex set every level with none of XBFS's adaptive
  /// strategies — so it only beats per-source runs once enough searches
  /// share it (measured crossover ~16 on scale-18 RMAT).  1 = always
  /// sweep.
  unsigned min_sweep_sources = 16;
  /// How long the scheduler waits for the backlog to fill a full cycle
  /// before dispatching what is there (0 = dispatch immediately).
  double batch_window_ms = 1.0;
  /// Per-worker traversal configuration.  report_runs is forced off — the
  /// server emits one summary record instead of one record per query.
  core::XbfsConfig xbfs;
  sim::DeviceProfile profile = sim::DeviceProfile::mi250x_gcd();

  // --- algorithm family ----------------------------------------------------
  /// Kinds this server builds engine ladders for; queries of any other
  /// kind are rejected Invalid at submit.  Static servers may list any
  /// registered kind; dynamic servers support Bfs (Xbfs) and Cc (lp-cc),
  /// both over the GCD's delta mirror — the constructor throws on others.  Each served kind also records SLO outcomes into
  /// "<slo_scope>:<kind>".
  std::vector<core::AlgoKind> algos = {core::AlgoKind::Bfs};
  /// QoS drain weights, indexed by AlgoKind: class k is offered up to
  /// qos_weights[k] queue slots per turn of the scheduler's round-robin
  /// wheel.  0 entries mean weight 1 (fair share).
  std::array<unsigned, core::kNumAlgoKinds> qos_weights{};

  // --- resilience (shared knobs in FrontEndConfig) -------------------------
  /// Straggler budget per dispatch (wall ms): a device that exceeds it is
  /// reported to the health tracker so later work routes around it;
  /// negative = none.
  double dispatch_timeout_ms = -1.0;
  /// Terminal ladder rung: serve from the registered host engine when
  /// every device attempt failed.  false = such queries resolve as Failed.
  bool host_fallback = true;

  // --- durability (dynamic servers; docs/durability.md) --------------------
  /// Require the GraphStore to carry a durability hook (store::open_durable
  /// / store::recover_store): the constructor throws std::invalid_argument
  /// for a dynamic server whose store has no WAL behind it, so a deployment
  /// that promises durability cannot silently serve from a volatile store.
  /// Ignored (must stay false) for static servers.
  bool require_durability = false;

  /// Reject nonsense configurations (FrontEndConfig::validate, counts >= 1,
  /// batch widths within the 64-bit sweep mask, non-negative windows,
  /// non-empty duplicate-free algos, xbfs.validate()).  Checked by the
  /// Server constructor, which throws std::invalid_argument.
  xbfs::Status validate() const;
};

/// Server stats on top of the shared FrontEndStats: batching, the
/// degradation ladder, the update lane, the dynamic device mirrors and
/// durability (the dynamic and durability rows read zero on a static
/// server).  VALUE expressions run in Server::stats (`cs` = cache_.stats();
/// `hook` = the store's durability hook, `ds` its stats or zero;
/// `recomputes` = device runs summed over the GCDs' mirrors); REPORT
/// expressions in Server::summarize.  `repairs` and `repair_fallbacks` are
/// retired and read 0.
#define XBFS_SERVER_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)                   \
  REPORT(std::uint64_t, "num_gcds", Gauge, "GCDs", Config,                     \
         "GCDs served concurrently", cfg_.num_gcds)                            \
  REPORT(std::uint64_t, "max_batch", Gauge, "sources", Config,                 \
         "sources per sweep", cfg_.max_batch)                                  \
  REPORT(std::string, "algos", Gauge, "kinds", Config, "served kinds",         \
         algo_names(cfg_.algos))                                               \
  COUNTER(sweeps, "dispatches", None, "BFS dispatch units")                    \
  COUNTER(singleton_sweeps, "dispatches", None, "BFS units run by one Xbfs")   \
  COUNTER(algo_dispatches, "dispatches", None, "non-BFS dispatch units")       \
  COUNTER(computed_sources, "units", None, "units that produced a result")     \
  HISTOGRAM(occupancy, "ratio", None, "batch size / max_batch, per BFS unit")  \
  HISTOGRAM(sweep_sources, "sources", None, "batch size, per BFS unit")        \
  VALUE(double, mean_batch_occupancy, "batch_occupancy", Derived, "ratio",     \
        None, "mean of occupancy", c.occupancy.mean())                         \
  VALUE(double, mean_sources_per_sweep, "sources_per_sweep", Derived,          \
        "sources", None, "mean of sweep_sources", c.sweep_sources.mean())      \
  VALUE(double, modelled_busy_ms, "modelled_busy_ms", Derived, "ms", Modelled, \
        "sum of modelled_ms", modelled_sum_ms())                               \
  COUNTER(host_fallbacks, "units", None, "served by the host rung")            \
  COUNTER(dispatch_timeouts, "dispatches", None, "past the straggler budget")  \
  REPORT(bool, "host_fallback", Gauge, "flag", Config,                         \
         "host CPU rung enabled", cfg_.host_fallback)                          \
  REPORT(bool, "dynamic", Gauge, "flag", Config, "serving a GraphStore",       \
         dynamic())                                                            \
  COUNTER(updates_submitted, "batches", None, "submit_update() calls")         \
  COUNTER(updates_applied, "batches", None, "batches applied")                 \
  COUNTER(updates_expired, "batches", None, "expired before applying")         \
  COUNTER(update_edges_applied, "edges", None, "inserts + deletes applied")    \
  COUNTER(update_noops, "ops", None, "ops already satisfied")                  \
  VALUE(std::uint64_t, graph_epoch, "graph_epoch", Gauge, "epochs", None,      \
        "store epoch now", store_ ? store_->epoch() : 0)                       \
  VALUE(std::uint64_t, compactions, "compactions", Counter, "compactions",     \
        None, "overlay folds", store_ ? store_->stats().compactions : 0)       \
  VALUE(std::uint64_t, cache_epoch_bumps, "cache_epoch_bumps", Counter,        \
        "bumps", None, "new fingerprint generations", cs.epoch_bumps)          \
  VALUE(std::uint64_t, cache_purged_stale, "cache_purged_stale", Counter,      \
        "entries", None, "purged by epoch bumps", cs.purged_stale)             \
  VALUE(std::uint64_t, cache_stale_hits_avoided, "cache_stale_hits_avoided",   \
        Counter, "probes", None, "stale-epoch probes refused",                 \
        cs.stale_hits_avoided)                                                 \
  VALUE(std::uint64_t, repairs, "repairs", Counter, "runs", None, "retired",   \
        0)                                                                     \
  VALUE(std::uint64_t, recomputes, "recomputes", Counter, "runs", None,        \
        "device runs over the dynamic mirrors", recomputes)                    \
  VALUE(std::uint64_t, repair_fallbacks, "repair_fallbacks", Counter, "runs",  \
        None, "retired", 0)                                                    \
  VALUE(bool, durable, "durable", Gauge, "flag", None, "WAL-backed store",     \
        hook != nullptr)                                                       \
  VALUE(std::uint64_t, wal_appends, "wal_appends", Counter, "records", None,   \
        "records made durable", ds.wal_appends)                                \
  VALUE(std::uint64_t, wal_append_failures, "wal_append_failures", Counter,    \
        "records", None, "torn or short writes", ds.wal_append_failures)       \
  VALUE(std::uint64_t, wal_fsync_failures, "wal_fsync_failures", Counter,      \
        "syncs", None, "failed fsyncs", ds.fsync_failures)                     \
  VALUE(std::uint64_t, wal_bytes, "wal_bytes", Gauge, "bytes", None,           \
        "WAL segment size", ds.wal_bytes)                                      \
  VALUE(std::uint64_t, snapshots_spilled, "snapshots_spilled", Counter,        \
        "snapshots", None, "bases written to disk", ds.snapshots_spilled)      \
  VALUE(std::uint64_t, wal_rotations, "wal_rotations", Counter, "segments",    \
        None, "segment switches", ds.wal_rotations)                            \
  VALUE(std::uint64_t, last_durable_epoch, "last_durable_epoch", Gauge,        \
        "epochs", None, "newest fsync'd epoch", ds.last_durable_epoch)         \
  COUNTER(updates_rejected_durability, "batches", None, "refused by the WAL")  \
  VALUE(bool, recovered, "recovered", Gauge, "flag", None,                     \
        "store came from recovery", ds.recovered)                              \
  VALUE(bool, recovery_torn_tail, "recovery_torn_tail", Gauge, "flag", None,   \
        "recovery cut a torn tail", ds.torn_tail_detected)                     \
  VALUE(std::uint64_t, recovered_epoch, "recovered_epoch", Gauge, "epochs",    \
        None, "epoch proven at startup", ds.recovered_epoch)                   \
  VALUE(std::uint64_t, recovery_replayed, "recovery_replayed", Counter,        \
        "records", None, "replayed at startup", ds.wal_records_replayed)       \
  VALUE(std::uint64_t, recovery_truncated_bytes, "recovery_truncated_bytes",   \
        Counter, "bytes", None, "torn-tail bytes cut", ds.wal_bytes_truncated) \
  COUNTER(recovery_stale_rejected, "fingerprints", None,                       \
          "result_still_valid() refusals")                                     \
  COUNTER(slo_proactive_degrades, "queries", None, "started below rung 0")

struct ServerStats : FrontEndStats {
  XBFS_STAT_FIELDS(XBFS_SERVER_STATS)
  /// Per-kind stats, indexed by AlgoKind.
  std::array<AlgoClassStats, core::kNumAlgoKinds> per_algo{};
};

/// Options for the update-admission lane (Server::submit_update).
struct UpdateOptions {
  /// Deadline budget from submission, in wall milliseconds: if the batch
  /// is still waiting on the (serialized) write lane past it, the update
  /// is rejected DeadlineExceeded without being applied.  Non-positive =
  /// no deadline (the lane default; the query-side default_timeout_ms is
  /// deliberately not inherited — dropping a write because reads are slow
  /// is never what a caller means).
  double timeout_ms = 0.0;
};

/// Outcome of submit_update(): whether the batch was applied, the epoch and
/// fingerprint the graph moved to, per-op apply accounting, and how many
/// cache entries the epoch bump purged.
struct UpdateAdmission {
  bool accepted = false;
  xbfs::Status status;
  std::uint64_t epoch = 0;
  std::uint64_t fingerprint = 0;
  dyn::ApplyStats applied;
  std::size_t cache_purged = 0;
  /// Write-lane trace (submit -> apply -> epoch bump -> cache purge); null
  /// when ServeConfig::query_tracing is off or the batch was rejected.
  obs::QueryTracePtr trace;
};

class Server : public FrontEnd {
 public:
  /// Static serving: `g` must outlive the server (it backs group_sources
  /// ordering, the per-GCD device uploads, and the host oracles).
  /// submit_update() rejects.
  explicit Server(const graph::Csr& g, ServeConfig cfg = {});
  /// Dynamic serving over a mutable graph store: BFS (dyn::IncrementalBfs)
  /// and CC (lp-cc) run over each GCD's device mirror of refcounted
  /// snapshots, updates enter through submit_update().  The store must
  /// outlive the server.  Batched sweeps and neighborhood
  /// grouping need the static CSR, so dynamic dispatch is always per-unit.
  explicit Server(dyn::GraphStore& store, ServeConfig cfg = {});
  ~Server() override;

  /// Admit one typed query.  Cache hits resolve immediately; otherwise the
  /// query enters the admission queue, or is rejected with a reason when
  /// the queue is full / the server is shutting down / the source is
  /// invalid / the kind is not in ServeConfig::algos.  Sources and params
  /// irrelevant to the kind are normalized (whole-graph kinds to source 0,
  /// parameterless kinds to default params) so equivalent queries dedup
  /// and share cache entries.
  Admission submit(core::AlgoQuery q, QueryOptions opt = {});
  /// BFS shorthand — the pre-redesign signature.
  using FrontEnd::submit;

  /// The update-admission lane (dynamic servers only): apply one edge batch
  /// to the graph store, advance the serving fingerprint, and purge cache
  /// entries keyed under retired epochs.  Writes are serialized per graph;
  /// readers are never blocked — in-flight queries finish on the snapshot
  /// they started with.  Rejected with InvalidArgument on a static server,
  /// ShuttingDown after shutdown() began, and DeadlineExceeded when
  /// opt.timeout_ms elapsed before the lane could apply the batch.
  UpdateAdmission submit_update(const dyn::EdgeBatch& batch,
                                UpdateOptions opt = {});

  bool dynamic() const { return store_ != nullptr; }
  /// Whether queries of kind `k` are admitted (k is in ServeConfig::algos).
  bool serves(core::AlgoKind k) const {
    return enabled_[static_cast<std::size_t>(k)];
  }

  ServerStats stats() const;
  /// Stats of GCD `gcd`'s device mirror (zero on a static server).
  dyn::DynEngineStats mirror_stats(unsigned gcd) const;
  const ServeConfig& config() const { return cfg_; }
  /// The fingerprint queries are currently cached under; moves with every
  /// applied update batch on a dynamic server.
  std::uint64_t graph_fingerprint() const { return fingerprint(); }
  /// Content-addressed result validity: true iff `fingerprint` is the state
  /// this server currently serves.  After crash recovery this is the proof
  /// obligation for results handed out before the crash — epochs lost to a
  /// torn WAL tail can never reproduce the recovered fingerprint, so a
  /// stale cached result is refused here rather than served.  Refusals are
  /// counted in ServerStats::recovery_stale_rejected.
  bool result_still_valid(std::uint64_t fingerprint) const;

 private:
  struct Gcd {
    std::unique_ptr<sim::Device> dev;
    graph::DeviceCsr dg;  ///< static servers only
    /// Dynamic servers only: the DeltaCsr on this device, which every
    /// dynamic rung reads (declared before the ladders that borrow it).
    std::unique_ptr<dyn::DeviceMirror> mirror;
    /// Per-kind degradation ladders, fastest rung first, built from the
    /// EngineRegistry (static servers) or over the mirror (dynamic: Bfs ->
    /// IncrementalBfs, Cc -> lp-cc).  Empty for kinds outside
    /// ServeConfig::algos.
    std::array<std::vector<std::unique_ptr<core::AlgorithmEngine>>,
               core::kNumAlgoKinds>
        ladders;
    /// With rerouting, lanes other than this GCD's home lane may dispatch
    /// here; the device's modelled clocks are not thread-safe.  Ranked
    /// (serve.gcd=40): taken inside the cycle lock, outside the device's
    /// pool lock (docs/modelcheck.md lock ranks).
    sim::RankedMutex mu{40, "serve.gcd"};
  };

  /// Dedup/delivery key of one dispatch unit: all queued queries agreeing
  /// on it share one engine run (for BFS, all with one source share a
  /// sweep lane; whole-graph kinds collapse to source 0).
  struct DispatchKey {
    core::AlgoKind algo = core::AlgoKind::Bfs;
    std::uint64_t phash = 0;
    graph::vid_t source = 0;
    bool operator==(const DispatchKey& o) const {
      return algo == o.algo && phash == o.phash && source == o.source;
    }
  };
  struct DispatchKeyHash {
    std::size_t operator()(const DispatchKey& k) const {
      std::uint64_t h = k.phash ^ (static_cast<std::uint64_t>(k.source) *
                                   0x9E3779B97F4A7C15ull);
      h ^= static_cast<std::uint64_t>(k.algo) + (h << 6) + (h >> 2);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<std::size_t>(h);
    }
  };
  using QueryMap =
      std::unordered_map<DispatchKey, std::vector<PendingQuery>,
                         DispatchKeyHash>;

  /// Outcome of resolving one dispatch unit through the resilience ladder.
  struct Resolution {
    CachedResult res;           ///< falsy payload = failed
    xbfs::Status status;        ///< terminal failure when res is falsy
    std::string engine;         ///< engine (or "sweep") that produced res
    unsigned attempts = 0;
    unsigned gcd = 0;
    bool degraded = false;
    bool validated = false;
    double modelled_ms = 0.0;   ///< modelled device time consumed (0 = host)
    /// Per-resolution scratch trace: attempt events + rung attribution,
    /// absorbed into every waiter's QueryTrace at delivery.  Null when
    /// query_tracing is off.
    obs::QueryTracePtr log;
    /// Fingerprint of the exact graph that produced res (cache key).  On a
    /// dynamic server this is the engine's served snapshot, which may trail
    /// the serving fingerprint if an update landed mid-flight — caching
    /// under it keeps the entry unreachable rather than wrong.
    std::uint64_t fp = 0;
  };

  /// One dispatch unit's device attempts: where they run, what each runs,
  /// how its result is accepted, and the running tally.  Both kinds of unit
  /// fill one in: a ladder rung's engine run (resolve_query) and the 64-way
  /// sweep over a batch of BFS sources (run_batch).
  struct Attempt {
    unsigned preferred = 0;        ///< home GCD lane
    obs::QueryTrace* log = nullptr;
    QueryId primary = 0;           ///< flight-recorder tag (0 = shared unit)
    double dispatch_us = 0.0;
    std::string engine{};          ///< trace and rung name
    std::string where{};           ///< attempt event detail ("rung=R" ...)
    unsigned rung = 0;
    unsigned members = 1;          ///< queries sharing the attempt's cost
    bool validate = false;
    /// Runs on the picked GCD under its lock and attribution sink.
    std::function<void(Gcd&)> run{};
    /// Realizes a pending transfer corruption on the result (the modelled
    /// copy moved no real bytes); `copies` is the device's corrupted-copy
    /// count.  false = the payload has no realization hook, so the attempt
    /// fails rather than serve a payload the detector can't check.
    std::function<bool(std::uint64_t copies)> corrupt{};
    /// Validates the result; empty = valid.
    std::function<std::string()> check{};
    unsigned attempts = 0;         ///< made so far, across calls
    xbfs::Status last = xbfs::Status::Unavailable("no device attempt made");
    unsigned gcd = 0;              ///< the GCD that served
  };
  enum class Tried { Served, Failed, NoDevice };
  /// One device attempt of `a` on a healthy GCD (its home lane when that
  /// breaker allows): health pick, retry accounting, the run under the GCD
  /// lock, corruption, validation, straggler and breaker reports, the
  /// attempt's rung attribution, and backoff after a failure.  NoDevice
  /// (every breaker open) consumes no attempt.
  Tried attempt(Attempt& a);

  /// Common constructor body behind the two public constructors; exactly
  /// one of g / store is non-null.
  Server(const graph::Csr* g, dyn::GraphStore* store, ServeConfig cfg);

  /// The backend: dedup one cycle's live queries by dispatch key, batch
  /// the distinct BFS sources, and run every unit across the GCD pool.
  void execute(std::vector<PendingQuery>& live, double dispatch_us) override;
  void summarize(obs::RunRecord& r) const override;
  /// BFS dispatch unit: up to max_attempts sweep attempts over a batch of
  /// two or more sources, then per-source resolve_query for a batch the
  /// sweep did not serve (and for every singleton).
  void run_batch(unsigned worker, const std::vector<graph::vid_t>& batch,
                 QueryMap& by_key, double dispatch_us);
  /// Non-BFS dispatch unit: one deduplicated (algo, params, source) run.
  void run_algo(unsigned worker, const DispatchKey& key, QueryMap& by_key,
                double dispatch_us);
  /// Straggler check: report + penalize when the dispatch ran past budget.
  /// Returns true when a failure was recorded — the caller must then skip
  /// its record_success, which would reset the breaker's failure streak
  /// and erase the penalty.
  bool note_dispatch_time(unsigned gcd, double dispatch_us);
  /// Resolve one query through its kind's per-GCD engine ladder, then the
  /// host fallback.  `attempts_so_far` carries sweep attempts already
  /// burned (reporting only; the ladder gets its own max_attempts budget).
  Resolution resolve_query(unsigned preferred, const core::AlgoQuery& q,
                           unsigned attempts_so_far, double dispatch_us,
                           QueryId primary);
  /// Per-kind host validation of a computed payload: empty string = valid
  /// (or no validator exists for the kind — see payload_validatable).
  std::string validate_payload(const core::AlgoQuery& q,
                               const CachedResult& res,
                               const dyn::Snapshot& snap) const;
  bool payload_validatable(core::AlgoKind k) const;
  void deliver_unit(const DispatchKey& key, const Resolution& r,
                    QueryMap& by_key, double dispatch_us,
                    unsigned batch_size, const obs::QueryTrace* batch_log);

  /// Exactly one of host_g_ / store_ is set (static vs dynamic serving).
  const graph::Csr* host_g_ = nullptr;
  dyn::GraphStore* store_ = nullptr;
  ServeConfig cfg_;
  /// The BFS dedup/cache phash (default AlgoParams, computed once).
  std::uint64_t bfs_phash_ = 0;

  std::vector<std::unique_ptr<Gcd>> gcds_;
  std::unique_ptr<sim::ThreadPool> pool_;  ///< one lane per GCD
  /// Terminal rungs, one per kind: host engines from the registry (static)
  /// or dyn::HostDeltaEngine (dynamic), immune to simulated-device faults.
  /// Null for kinds without a registered host engine.
  std::array<std::unique_ptr<core::AlgorithmEngine>, core::kNumAlgoKinds>
      host_engines_;

  struct Handles {
    XBFS_STAT_HANDLES(XBFS_SERVER_STATS)
  };
  /// Mutable: result_still_valid() is a const read that counts refusals.
  mutable Handles stat_;

  /// Writes serialized per graph (update lane); taken before the store's
  /// writer/publish locks (ranks 30/32).
  sim::RankedMutex update_mu_{12, "serve.update"};
};

}  // namespace xbfs::serve
