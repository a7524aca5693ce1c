// Example: a Graph500-style BFS benchmark driver — the evaluation protocol
// behind the paper's headline claim (43 GTEPS per GCD vs 0.4 GTEPS per GCD
// for Frontier's CPU-based June-2024 submission).
//
// Generates the Graph500 RMAT kernel, samples 64 random sources from the
// giant component, runs XBFS for each, validates every traversal, and
// reports min/harmonic-mean/max TEPS as the official benchmark does.
//
//   ./graph500_runner [scale] [edge_factor] [num_sources] [seed]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <random>

#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "graph/rmat.h"

int main(int argc, char** argv) {
  using namespace xbfs;

  graph::RmatParams params;
  params.scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 16;
  params.edge_factor =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 16;
  const unsigned num_sources =
      argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 16;
  params.seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 1;

  std::cout << "Graph500-style kernel: RMAT scale " << params.scale
            << ", edge factor " << params.edge_factor << "\n";
  const graph::Csr g = graph::rmat_csr(params);
  std::cout << "  |V| = " << g.num_vertices() << ", |E| = " << g.num_edges()
            << " directed entries\n";

  const auto giant = graph::largest_component_vertices(g);
  std::mt19937_64 rng(params.seed);
  std::uniform_int_distribution<std::size_t> pick(0, giant.size() - 1);

  sim::Device dev(sim::DeviceProfile::mi250x_gcd());
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::XbfsConfig cfg;
  cfg.build_parents = true;  // Graph500 validates the BFS *tree*
  core::Xbfs bfs(dev, dg, cfg);

  double min_gteps = 1e300, max_gteps = 0, inv_sum = 0;
  unsigned validated = 0;
  for (unsigned i = 0; i < num_sources; ++i) {
    const graph::vid_t src = giant[pick(rng)];
    const core::BfsResult r = bfs.run(src);
    // Official-style validation on the parent tree (the five Graph500
    // rules), plus the level cross-check.
    std::string err = graph::validate_graph500(g, src, r.parent);
    if (err.empty()) err = graph::validate_levels_graph500(g, src, r.levels);
    if (!err.empty()) {
      std::cerr << "VALIDATION FAILED for source " << src << ": " << err
                << "\n";
      return 1;
    }
    ++validated;
    min_gteps = std::min(min_gteps, r.gteps);
    max_gteps = std::max(max_gteps, r.gteps);
    inv_sum += 1.0 / r.gteps;
    std::printf("  bfs %2u: src %9u depth %2u  %8.3f ms  %7.3f GTEPS\n", i,
                src, r.depth, r.total_ms, r.gteps);
  }

  const double harmonic = static_cast<double>(num_sources) / inv_sum;
  std::printf(
      "\n%u/%u traversals validated\n"
      "TEPS summary (modelled, single MI250X GCD): min %.3f | harmonic mean "
      "%.3f | max %.3f GTEPS\n",
      validated, num_sources, min_gteps, harmonic, max_gteps);
  std::printf(
      "paper context: 43 GTEPS/GCD at scale 25 on hardware; Frontier's "
      "CPU-based Graph500 run averaged 0.4 GTEPS/GCD\n");
  return 0;
}
