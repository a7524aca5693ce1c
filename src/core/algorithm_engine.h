// The algorithm-family vocabulary: every graph-analytics runner in the
// repository — BFS, delta-stepping SSSP, connected components, k-core,
// betweenness, SCC — answers one typed interface, so consumers (the
// serving engine's per-algorithm ladders, the registry, the conformance
// suite, benches) hold AlgorithmEngine pointers instead of hard-coded
// types.
//
// The historical single-algorithm interface, TraversalEngine, survives as
// an adapter: a pure `BfsResult run(vid_t)` subclass is automatically a
// full AlgorithmEngine of kind Bfs (solve() wraps run() into the typed
// payload).  BfsResult, LevelStats, and safe_gteps live here too
// (docs/api.md has the migration table).
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "graph/csr.h"

namespace xbfs::core {

/// The algorithm family one engine solves.  Values are stable across
/// releases: they participate in result-cache keys and run-report fields.
enum class AlgoKind : std::uint8_t {
  Bfs = 0,    ///< hop levels from a source (-1 = unreached)
  Sssp = 1,   ///< weighted distances from a source (synthetic weights)
  Cc = 2,     ///< connected components (undirected), min-vertex-id labels
  KCore = 3,  ///< coreness per vertex (k = 0) or k-core membership (k > 0)
  Bc = 4,     ///< betweenness-centrality contribution of a source
  Scc = 5,    ///< strongly connected components (directed view)
};

inline constexpr std::size_t kNumAlgoKinds = 6;

/// Stable short identifier ("bfs", "sssp", "cc", "kcore", "bc", "scc") —
/// used in run-report keys, QoS class labels, and SLO scope names.
const char* algo_kind_name(AlgoKind k);

/// Parse an algo_kind_name() string; false leaves `out` untouched.
bool algo_kind_parse(std::string_view name, AlgoKind& out);

/// Whether queries of this kind are rooted at a source vertex (Bfs, Sssp,
/// Bc) or describe the whole graph (Cc, KCore, Scc; their queries carry
/// source 0 and dedup/cache per graph, not per vertex).
bool algo_needs_source(AlgoKind k);

/// Per-query algorithm parameters.  One struct for the whole family keeps
/// Query/cache plumbing monomorphic; engines read only their own fields.
/// hash() salts result-cache keys, so every field that changes the answer
/// must be mixed in.
struct AlgoParams {
  // --- SSSP ---------------------------------------------------------------
  /// Synthetic edge weights are drawn deterministically in [1, max_weight]
  /// from (edge, weight_seed) — see graph::synth_weight.  The CSR itself is
  /// unweighted; the same (seed, max) pair on device and host oracle makes
  /// distances exactly comparable.
  std::uint32_t max_weight = 8;
  std::uint64_t weight_seed = 1;
  /// Delta-stepping bucket width; 0 = auto (max_weight: light edges within
  /// a bucket, heavy edges always cross).
  std::uint32_t delta = 0;
  // --- k-core -------------------------------------------------------------
  /// 0 = full decomposition (payload cores[v] = coreness of v); k > 0 =
  /// membership (cores[v] = 1 iff v survives the k-core trim, else 0).
  std::uint32_t k = 0;

  bool operator==(const AlgoParams&) const = default;

  /// Stable FNV-1a over every answer-affecting field.  Cache keys are
  /// (graph fingerprint, algo, hash(), source).
  std::uint64_t hash() const;
};

/// One request against the loaded graph: the typed generalization of
/// "BFS from source s".  `source` is ignored when !algo_needs_source(algo).
struct AlgoQuery {
  AlgoKind algo = AlgoKind::Bfs;
  graph::vid_t source = 0;
  AlgoParams params;
};

/// Unreached sentinel of the uint32 distance domain (SSSP).
inline constexpr std::uint32_t kUnreachedDist = 0xFFFFFFFFu;

/// Shared-immutable per-vertex answer of one query: exactly one of the
/// vectors is set, selected by `kind`.  Cache hits hand out the same
/// underlying vectors the cold run produced (refcount bump, no copy).
/// This is what serve::CachedResult collapsed into — the `levels`/`depth`
/// member names are kept so BFS call sites read unchanged.
struct ResultPayload {
  AlgoKind kind = AlgoKind::Bfs;
  std::shared_ptr<const std::vector<std::int32_t>> levels;      ///< Bfs: -1 = unreached
  std::shared_ptr<const std::vector<std::uint32_t>> distances;  ///< Sssp: kUnreachedDist = unreached
  std::shared_ptr<const std::vector<graph::vid_t>> components;  ///< Cc/Scc: label per vertex
  std::shared_ptr<const std::vector<std::uint32_t>> cores;      ///< KCore: coreness or 0/1 membership
  std::shared_ptr<const std::vector<double>> scores;            ///< Bc: dependency per vertex
  /// Rounds of the fixpoint that produced the payload: BFS depth, SSSP
  /// buckets settled, CC/k-core/SCC iterations.  Cached so hits never
  /// rescan the payload.
  std::uint32_t depth = 0;

  /// False = miss/empty sentinel (no vector set).
  explicit operator bool() const {
    return levels || distances || components || cores || scores;
  }
  /// Vertex count of whichever vector is set; 0 when empty.
  std::size_t size() const;
};

/// Telemetry for one level / bucket / round of an engine's fixpoint.
struct LevelStats {
  std::uint32_t level = 0;
  Strategy strategy = Strategy::ScanFree;
  bool skipped_generation = false;   ///< NFG variant fired
  std::uint64_t frontier_count = 0;  ///< vertices expanded this level
  std::uint64_t frontier_edges = 0;  ///< their total degree
  double ratio = 0.0;                ///< frontier_edges / |E|
  double time_ms = 0.0;              ///< modelled level time (kernels+syncs)
  double fetch_kb = 0.0;             ///< HBM fetch traffic this level
  unsigned kernels = 0;              ///< kernel launches this level
};

/// GTEPS = edges traversed / (total_ms * 1e6), guarded so trivial runs
/// (single-vertex graphs, zero modelled time) report 0 rather than inf/nan.
/// Every runner — XBFS, baselines, dist — computes throughput through this.
inline double safe_gteps(std::uint64_t edges_traversed, double total_ms) {
  if (!std::isfinite(total_ms) || total_ms <= 0.0) return 0.0;
  return static_cast<double>(edges_traversed) / (total_ms * 1e6);
}

struct BfsResult {
  std::vector<std::int32_t> levels;  ///< -1 = unreached
  std::vector<graph::vid_t> parent;  ///< empty unless engine builds parents
  std::vector<LevelStats> level_stats;
  double total_ms = 0.0;             ///< modelled (device) or wall (host) time
  std::uint64_t edges_traversed = 0; ///< undirected edges in the traversal
  double gteps = 0.0;                ///< edges_traversed / total_ms
  std::uint32_t depth = 0;           ///< number of BFS levels run
};

/// What a caller may rely on without knowing the concrete engine type.  The
/// serving ladder orders engines from fastest-but-faultable (adaptive, on
/// the simulated device) to slowest-but-immune (host CPU).
struct EngineCapabilities {
  /// Runs on the simulated GPU — subject to injected device faults
  /// (kernel failures, transfer corruption); host engines are immune.
  bool on_device = false;
  /// Picks a traversal strategy per level/round (e.g. XBFS's adaptive
  /// policy, delta-stepping's r-vs-alpha push/pull rule).
  bool adaptive = false;
  /// BFS only: run() fills BfsResult::parent.
  bool builds_parents = false;
};

/// Engine-side result: the shared payload plus run telemetry that does not
/// belong in the cache.
struct AlgoResult {
  ResultPayload payload;
  std::vector<LevelStats> level_stats;
  double total_ms = 0.0;        ///< modelled (device) or wall (host) time
  std::uint64_t work_items = 0; ///< edges traversed / relaxations / trims
};

/// One algorithm engine.  solve() must produce the canonical answer for
/// its kind — every registered engine of a kind is interchangeable on the
/// payload (conformance tests enforce engine == host oracle), which is
/// what lets the serving layer degrade between rungs without clients
/// noticing anything but latency.
class AlgorithmEngine {
 public:
  virtual ~AlgorithmEngine() = default;

  /// The family this engine answers; solve() rejects no other kinds — the
  /// registry guarantees queries are routed by kind.
  virtual AlgoKind kind() const = 0;

  /// Answer one query.  May be called repeatedly; implementations reuse
  /// their buffers.  Throws (e.g. sim::FaultInjected) on simulated device
  /// faults — callers on the resilient path catch and retry.
  virtual AlgoResult solve(const AlgoQuery& q) = 0;

  /// Stable short identifier ("xbfs", "delta-sssp", "lp-cc", ...).
  virtual const char* name() const = 0;

  virtual EngineCapabilities capabilities() const = 0;
};

/// Migration adapter: the classic single-source BFS interface.  Subclasses
/// implement run() exactly as before PR 8 and are automatically
/// AlgorithmEngines of kind Bfs; solve() wraps run() into a ResultPayload.
class TraversalEngine : public AlgorithmEngine {
 public:
  /// One traversal from `src`.  May be called repeatedly; implementations
  /// reuse their buffers.  Throws (e.g. sim::FaultInjected) on simulated
  /// device faults — callers on the resilient path catch and retry.
  virtual BfsResult run(graph::vid_t src) = 0;

  AlgoKind kind() const override { return AlgoKind::Bfs; }
  AlgoResult solve(const AlgoQuery& q) override;
};

}  // namespace xbfs::core
