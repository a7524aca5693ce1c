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

#include <atomic>
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

/// Serving counters for the sharded tier: the shared serve::FrontEndStats
/// (SLO lanes are shard-replica slots, labelled "s<shard>r<replica>") plus
/// the sweep and exchange accounting.
struct RouterStats : serve::FrontEndStats {
  std::uint64_t sweeps = 0;        ///< distributed sweeps run (incl. retries)
  std::uint64_t partial_queries = 0;       ///< served with >= 1 lost shard
  std::uint64_t lost_shard_events = 0;     ///< lost shards summed over sweeps
  std::uint64_t unavailable_failures = 0;  ///< source shard had no replica

  // --- exchange accounting --------------------------------------------------
  std::uint64_t levels_swept = 0;      ///< BFS levels run across all sweeps
  std::uint64_t two_phase_levels = 0;  ///< levels where 2D promotion won
  std::uint64_t exchange_raw_bytes = 0;
  std::uint64_t exchange_wire_bytes = 0;
  /// raw/wire across all exchanges (>= 1; 1.0 = no compression win).
  double compression_ratio = 0.0;
  /// Summed modelled device+fabric time of the sweeps behind
  /// modelled_p50_ms/modelled_p99_ms (bench_dist_scaling's sublinearity
  /// record reads the p99).
  double modelled_total_ms = 0.0;
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

  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> partial_queries_{0};
  std::atomic<std::uint64_t> lost_shard_events_{0};
  std::atomic<std::uint64_t> unavailable_failures_{0};
  std::atomic<std::uint64_t> levels_swept_{0};
  std::atomic<std::uint64_t> two_phase_levels_{0};
  std::atomic<std::uint64_t> exchange_raw_bytes_{0};
  std::atomic<std::uint64_t> exchange_wire_bytes_{0};
};

}  // namespace xbfs::shard
