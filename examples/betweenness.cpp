// Example: approximate betweenness centrality on the simulated GCD — the
// BFS-powered analytics workload the paper's introduction motivates [24].
// Since PR 8 the example is also the registry's smoke test: instead of
// constructing algos::BcEngine directly it resolves the "brandes-bc"
// engine from core::EngineRegistry::global() by (kind, name), exactly the
// way the serving layer builds its per-algorithm ladders.  Samples
// sources, accumulates the per-source Brandes dependencies through the
// typed AlgorithmEngine::solve() interface, and reports the top-central
// vertices next to the exact serial computation on the sampled sources.
//
//   ./betweenness [scale] [edge_factor] [num_sources] [seed]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <random>

#include "algos/bc.h"
#include "algos/engines.h"
#include "core/engine_registry.h"
#include "graph/device_csr.h"
#include "graph/reference.h"
#include "graph/rmat.h"

int main(int argc, char** argv) {
  using namespace xbfs;

  graph::RmatParams params;
  params.scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 13;
  params.edge_factor =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 8;
  const unsigned num_sources =
      argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 16;
  params.seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 1;

  const graph::Csr g = graph::rmat_csr(params);
  std::cout << "RMAT scale " << params.scale << ": |V| = " << g.num_vertices()
            << ", |E| = " << g.num_edges() << "\n";

  const auto giant = graph::largest_component_vertices(g);
  std::mt19937_64 rng(params.seed);
  std::vector<graph::vid_t> sources;
  for (unsigned i = 0; i < num_sources; ++i) {
    sources.push_back(giant[rng() % giant.size()]);
  }

  sim::Device dev(sim::DeviceProfile::mi250x_gcd());
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);

  // Resolve the BC engine through the process-wide registry — the same
  // path the serving engine takes — rather than naming a concrete type.
  algos::register_builtin_engines();
  auto& registry = core::EngineRegistry::global();
  const core::EngineContext ctx{
      .dev = &dev, .dg = &dg, .host_g = &g, .config = nullptr};
  auto engine = registry.build(core::AlgoKind::Bc, "brandes-bc", ctx);
  if (!engine) {
    std::cerr << "registry has no buildable 'brandes-bc' engine\n";
    return 2;
  }
  std::cout << "registry engines for kind bc:";
  for (const core::EngineInfo& info : registry.list()) {
    if (info.kind == core::AlgoKind::Bc) {
      std::cout << " " << info.name << "(rung " << info.rung << ")";
    }
  }
  std::cout << "\nresolved engine: " << engine->name() << "\n";

  // Per-source typed queries; BC centrality is the sum of per-source
  // dependency contributions (unnormalized, matching the reference).
  std::vector<double> centrality(g.num_vertices(), 0.0);
  double total_ms = 0.0;
  for (const graph::vid_t src : sources) {
    core::AlgoQuery q;
    q.algo = core::AlgoKind::Bc;
    q.source = src;
    const core::AlgoResult r = engine->solve(q);
    const std::vector<double>& scores = *r.payload.scores;
    for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
      centrality[v] += scores[v];
    }
    total_ms += r.total_ms;
  }
  std::cout << "simulated-GPU Brandes over " << num_sources << " sources: "
            << total_ms << " ms modelled\n";

  // Exact check on the same source sample.
  const auto ref = algos::betweenness_reference(g, sources);
  double max_err = 0;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    max_err = std::max(max_err, std::abs(centrality[v] - ref[v]));
  }
  std::cout << "max |device - reference| = " << max_err << "\n";

  std::vector<graph::vid_t> by_bc(g.num_vertices());
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) by_bc[v] = v;
  std::partial_sort(by_bc.begin(), by_bc.begin() + 10, by_bc.end(),
                    [&](graph::vid_t a, graph::vid_t b) {
                      return centrality[a] > centrality[b];
                    });
  std::cout << "top-10 central vertices (vertex: score, degree):\n";
  for (int i = 0; i < 10; ++i) {
    const graph::vid_t v = by_bc[i];
    std::printf("  %8u: %12.1f  deg %u\n", v, centrality[v], g.degree(v));
  }
  return max_err < 1e-6 ? 0 : 1;
}
