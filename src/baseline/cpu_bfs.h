// CPU BFS baselines (real wall-clock, no simulation): a serial queue BFS
// and a level-synchronous multithreaded BFS.  These anchor the examples and
// stand in for the CPU-based Graph500 implementation the paper compares
// per-GCD throughput against (0.4 GTEPS/GCD on Frontier, June 2024 list).
#pragma once

#include <cstdint>
#include <vector>

#include "core/algorithm_engine.h"
#include "graph/csr.h"

namespace xbfs::baseline {

struct CpuBfsResult {
  std::vector<std::int32_t> levels;
  double wall_ms = 0.0;
  std::uint64_t edges_traversed = 0;  ///< undirected edges reached
  double gteps = 0.0;
};

/// Serial queue BFS, timed.
CpuBfsResult cpu_bfs_serial(const graph::Csr& g, graph::vid_t src);

/// Level-synchronous parallel BFS over `num_threads` std::threads with
/// atomic level claims.  num_threads==0 uses hardware concurrency.
CpuBfsResult cpu_bfs_parallel(const graph::Csr& g, graph::vid_t src,
                              unsigned num_threads = 0);

/// TraversalEngine adapter over the host BFS implementations.  Runs on real
/// CPU threads, never on the simulated device — which makes it immune to
/// injected device faults and the terminal rung of the serving engine's
/// degradation ladder.
class CpuBfsEngine final : public core::TraversalEngine {
 public:
  enum class Mode { Serial, Parallel };

  explicit CpuBfsEngine(const graph::Csr& g, Mode mode = Mode::Parallel,
                        unsigned num_threads = 0)
      : g_(g), mode_(mode), num_threads_(num_threads) {}

  core::BfsResult run(graph::vid_t src) override;

  const char* name() const override {
    return mode_ == Mode::Serial ? "cpu-serial" : "cpu-parallel";
  }
  core::EngineCapabilities capabilities() const override {
    return {};  // host-side: not on_device, not adaptive, no parents
  }

 private:
  const graph::Csr& g_;
  Mode mode_;
  unsigned num_threads_;
};

}  // namespace xbfs::baseline
