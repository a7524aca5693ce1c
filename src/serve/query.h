// Query-serving vocabulary types: what a client submits, what it gets
// back, and why a submission may be turned away at the door.
//
// A query is one algorithm request against the loaded graph — "BFS levels
// from source s" historically, and since the AlgorithmEngine redesign any
// core::AlgoQuery (SSSP distances, component labels, k-core membership,
// ...).  Admission is synchronous — submit() either hands back a future for
// the result or rejects with a reason (backpressure, shutdown, bad source,
// unserved algorithm).  Accepted queries always resolve: completed, or
// expired past their deadline (expired queries are *reported* through the
// same future and the serving counters, never dropped silently).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm_engine.h"
#include "core/status_code.h"
#include "graph/csr.h"
#include "obs/query_trace.h"

namespace xbfs::serve {

using QueryId = std::uint64_t;

/// Shared immutable BFS levels (-1 = unreached).  Cache hits hand out the
/// same underlying object the cold run produced, so a hit costs one
/// refcount bump, not a copy.
using Levels = std::shared_ptr<const std::vector<std::int32_t>>;

/// What the result cache stores per (graph, algo, params, source): the
/// typed shared payload plus the fixpoint depth.  This used to be a
/// BFS-only {levels, depth} struct; it collapsed into core::ResultPayload
/// (same `levels`/`depth` member names, so BFS call sites read unchanged —
/// docs/api.md has the migration table).
using CachedResult = core::ResultPayload;

enum class QueryStatus {
  Completed,  ///< payload is valid
  Expired,    ///< deadline passed while queued; no traversal was run
  Failed,     ///< every rung of the resilience ladder failed; see error
};

const char* query_status_name(QueryStatus s);

struct QueryOptions {
  /// Deadline budget from enqueue, in wall milliseconds.  0 inherits the
  /// server default; a non-positive value after inheritance (explicit
  /// negative, or a server default <= 0) means no deadline — only a
  /// strictly positive budget ever expires a query.
  double timeout_ms = 0.0;
  /// Skip the result cache for this query (forces a fresh traversal and
  /// does not publish the result into the cache).
  bool bypass_cache = false;
};

/// Deadline arithmetic shared by every admission lane (FrontEnd::admit,
/// the update lane): 0 inherits `default_timeout_ms`, and only a strictly
/// positive resolved budget creates a deadline.
/// Historically a resolved budget of exactly 0 produced `deadline == now`
/// — every such query expired at dispatch despite the "0 inherits the
/// default" contract; this helper is the single fixed implementation.
inline double resolve_deadline_us(double timeout_ms, double default_timeout_ms,
                                  double now_us) {
  const double t = timeout_ms != 0.0 ? timeout_ms : default_timeout_ms;
  return t > 0.0 ? now_us + t * 1000.0 : -1.0;
}

/// Delivered through the future of an accepted query.
struct QueryResult {
  QueryId id = 0;
  core::AlgoKind algo = core::AlgoKind::Bfs;
  graph::vid_t source = 0;   ///< 0 when !algo_needs_source(algo)
  QueryStatus status = QueryStatus::Completed;
  /// The typed per-vertex answer (payload.kind == algo); empty when
  /// status != Completed.
  core::ResultPayload payload;
  Levels levels;             ///< == payload.levels (BFS); null otherwise
  std::uint32_t depth = 0;   ///< == payload.depth (fixpoint rounds run)
  bool cache_hit = false;
  unsigned batch_size = 0;   ///< distinct sources sharing the sweep (1 = singleton path; 0 = no traversal)
  unsigned gcd = 0;          ///< worker/device that served it
  double queue_ms = 0.0;     ///< enqueue -> dispatch (wall)
  double service_ms = 0.0;   ///< dispatch -> complete (wall)
  double total_ms = 0.0;     ///< enqueue -> complete (wall)

  // --- resilience annotations ---------------------------------------------
  std::string engine;        ///< AlgorithmEngine::name that produced payload
                             ///< ("sweep" for the 64-way path; empty = cache)
  unsigned attempts = 0;     ///< dispatch attempts consumed (1 = clean)
  bool degraded = false;     ///< served below the preferred rung (fallback)
  bool validated = false;    ///< payload passed its kind's host validator
  xbfs::Status error;        ///< terminal failure detail when status==Failed

  // --- sharded serving (shard::ShardRouter; zero on single-graph servers) --
  unsigned shards = 0;       ///< shard owners fanned out to (0 = unsharded)
  unsigned shards_lost = 0;  ///< owners with no healthy replica this query
  /// Some shard had no healthy replica: levels are complete for the live
  /// shards' vertex ranges and -1 in the lost ranges (status stays
  /// Completed, degraded is set, and `error` carries the Unavailable
  /// detail).  Partial results are never cached or validated.
  bool partial = false;

  /// Query-scoped trace: the causal event record (admission -> every
  /// retry/rung -> terminal) plus per-rung kernel-counter attribution.
  /// Null when ServeConfig::query_tracing is off.
  obs::QueryTracePtr trace;
};

/// Outcome of Server::submit().
struct Admission {
  bool accepted = false;
  xbfs::Status status;              ///< Ok iff accepted
  QueryId id = 0;
  std::future<QueryResult> result;  ///< valid only when accepted
};

}  // namespace xbfs::serve
