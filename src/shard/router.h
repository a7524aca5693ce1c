// ShardRouter: the scatter-gather backend of the sharded serving tier,
// behind the shared serve::FrontEnd (admission, triage, terminal
// accounting, lifecycle; serve/front_end.h).
//
//   clients --submit()--> AdmissionQueue --(router workers)--> plan + sweep
//                              |                                    |
//                        backpressure                  ShardSweep over the
//                       (reject w/ reason)             planned replicas
//                              |                                    |
//                  ResultCache <---- merged global levels <---------+
//
// Each query fans out to every shard owner: the router picks one healthy
// replica per shard (serve::HealthTracker with one breaker per
// shard-replica slot, routed within the shard's replica group via
// pick_in), locks the chosen replicas in slot order, and runs the
// distributed direction-optimizing sweep (shard/shard_bfs.h).  The merged
// per-shard level slices come back as one QueryResult, cached under the
// graph fingerprint mixed with the partition layout hash — a re-shard
// self-invalidates every cached entry.
//
// Resilience is per shard-replica, not per query: an injected fault opens
// that slot's breaker and the query retries on a sibling replica
// (rerouted, not failed).  A shard whose whole replica group is down
// degrades the query instead — the sweep runs without that shard, the
// lost vertex range reports -1, and the result carries partial=true plus
// an Unavailable detail in `error` while status stays Completed.  Only
// the source's own shard is unroutable-around: with no healthy replica
// there, the query fails Unavailable.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/front_end.h"
#include "shard/shard_bfs.h"
#include "shard/sharded_store.h"

namespace xbfs::shard {

struct RouterConfig : serve::FrontEndConfig {
  RouterConfig() : FrontEndConfig(/*capacity=*/1024, /*scope=*/"shard-serve") {}

  /// Router worker threads.  Each runs whole distributed sweeps; workers
  /// parallelize across queries only when their plans pick disjoint
  /// replicas (replica locks serialize overlapping plans).
  unsigned workers = 2;
  /// Serve queries with lost shards as partial results.  false = such
  /// queries fail with Unavailable instead.  Partial results are never
  /// validated — edges into a lost range legitimately break the rules.
  bool allow_partial = true;
  ShardSweepConfig sweep;

  xbfs::Status validate() const;
};

/// Sharded-tier stats on top of the shared serve::FrontEndStats (SLO lanes
/// are shard-replica slots, labelled "s<shard>r<replica>"): sweep and
/// exchange accounting.  VALUE expressions run in ShardRouter::stats;
/// REPORT expressions in ShardRouter::summarize (`mem` =
/// store_.memory_report()).
#define XBFS_ROUTER_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)                   \
  REPORT(std::uint64_t, "shards", Gauge, "shards", Config, "shard groups",     \
         store_.shards())                                                      \
  REPORT(std::uint64_t, "replicas", Gauge, "replicas", Config,                 \
         "replicas per shard", store_.replicas())                              \
  REPORT(std::uint64_t, "grid_rows", Gauge, "rows", Config, "2D layout rows",  \
         store_.layout().grid_rows())                                          \
  REPORT(std::uint64_t, "grid_cols", Gauge, "cols", Config,                    \
         "2D layout columns", store_.layout().grid_cols())                     \
  REPORT(std::uint64_t, "budget_bytes", Gauge, "bytes", Config,                \
         "memory budget per replica", mem.budget_bytes)                        \
  REPORT(std::uint64_t, "single_device_bytes", Gauge, "bytes", Config,         \
         "footprint on one device", mem.single_device_bytes)                   \
  REPORT(std::uint64_t, "max_shard_bytes", Gauge, "bytes", Config,             \
         "largest shard footprint", mem.max_shard_bytes)                       \
  REPORT(double, "oversubscription", Derived, "ratio", Config,                 \
         "single_device_bytes / budget_bytes", mem.oversubscription)           \
  REPORT(std::uint64_t, "serving_fingerprint", Gauge, "hash", Config,          \
         "CSR fingerprint x layout hash", serving_fingerprint())               \
  REPORT(std::uint64_t, "workers", Gauge, "threads", Config,                   \
         "router worker threads", cfg_.workers)                                \
  REPORT(bool, "allow_partial", Gauge, "flag", Config,                         \
         "lost shards serve -1 ranges", cfg_.allow_partial)                    \
  COUNTER(sweeps, "sweeps", None, "sweeps run (retries too)")                  \
  COUNTER(partial_queries, "queries", None, "served with a lost shard")        \
  COUNTER(lost_shard_events, "shards", None, "lost shards, summed")            \
  COUNTER(unavailable_failures, "queries", None,                               \
          "a needed shard had no replica")                                     \
  COUNTER(levels_swept, "levels", None, "levels over all sweeps")              \
  COUNTER(two_phase_levels, "levels", None, "2D-promoted levels")              \
  COUNTER(exchange_raw_bytes, "bytes", None, "exchange before compression")    \
  COUNTER(exchange_wire_bytes, "bytes", None, "exchange on the wire")          \
  HISTOGRAM(sweep_comm_ms, "ms", Modelled, "fabric time per sweep")            \
  VALUE(double, compression_ratio, "compression_ratio", Derived, "ratio",      \
        None, "raw / wire bytes: >= 1, 0 before any exchange",                 \
        obs::ratio(s.exchange_raw_bytes, s.exchange_wire_bytes))               \
  VALUE(double, modelled_total_ms, "modelled_total_ms", Derived, "ms",         \
        Modelled, "sum of modelled_ms", modelled_sum_ms())

struct RouterStats : serve::FrontEndStats {
  XBFS_STAT_FIELDS(XBFS_ROUTER_STATS)
};

class ShardRouter : public serve::FrontEnd {
 public:
  /// The store must outlive the router (it owns every replica device the
  /// router plans onto).
  ShardRouter(ShardedStore& store, RouterConfig cfg = {});
  ~ShardRouter() override;

  RouterStats stats() const;
  const RouterConfig& config() const { return cfg_; }
  const ShardedStore& store() const { return store_; }
  /// The cache key every result is published under: the CSR fingerprint
  /// mixed with the partition layout hash (re-shard => new key space).
  std::uint64_t serving_fingerprint() const { return fingerprint(); }
  serve::BreakerState breaker_state(unsigned shard, unsigned replica) const {
    return health_.state(store_.slot(shard, replica));
  }

 private:
  /// The backend: plan and sweep each live query in turn.
  void execute(std::vector<serve::PendingQuery>& live,
               double dispatch_us) override;
  void summarize(obs::RunRecord& r) const override;
  /// One replica index per shard (ShardSweep::kLost = none healthy);
  /// `excluded` marks slots this query already saw fault.  Returns the
  /// number of lost shards.
  unsigned build_plan(serve::QueryId id, unsigned attempt,
                      const std::vector<char>& excluded,
                      std::vector<int>& plan, obs::QueryTrace* log);
  /// The attempt loop: plan, lock, sweep, validate, retry around faults.
  void process_query(serve::PendingQuery&& p, double dispatch_us);

  ShardedStore& store_;
  RouterConfig cfg_;
  /// Stateless between runs; concurrent workers may share it because every
  /// mutable buffer a run touches lives in the replicas its plan locked.
  ShardSweep sweep_;

  struct Handles {
    XBFS_STAT_HANDLES(XBFS_ROUTER_STATS)
  };
  Handles stat_;
};

}  // namespace xbfs::shard
