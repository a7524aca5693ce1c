#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <random>

namespace xbfs::graph {

Csr erdos_renyi(vid_t n, std::uint64_t target_edges, std::uint64_t seed) {
  assert(n >= 2);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vid_t> pick(0, n - 1);
  std::vector<Edge> edges;
  edges.reserve(target_edges);
  for (std::uint64_t i = 0; i < target_edges; ++i) {
    edges.push_back(Edge{pick(rng), pick(rng)});
  }
  return build_csr(n, std::move(edges));
}

Csr small_world(vid_t n, unsigned k, double beta, std::uint64_t seed) {
  assert(n > 2 * k);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::uniform_int_distribution<vid_t> pick(0, n - 1);
  std::vector<Edge> edges;
  edges.reserve(std::uint64_t{n} * k / 2);
  for (vid_t v = 0; v < n; ++v) {
    for (unsigned j = 1; j <= k / 2; ++j) {
      vid_t w = static_cast<vid_t>((v + j) % n);
      if (uni(rng) < beta) w = pick(rng);  // rewire
      edges.push_back(Edge{v, w});
    }
  }
  return build_csr(n, std::move(edges));
}

Csr layered_citation(vid_t n, unsigned layers, unsigned avg_out,
                     std::uint64_t seed) {
  assert(layers >= 2 && n >= layers);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const vid_t per_layer = n / layers;
  std::poisson_distribution<unsigned> out_deg(avg_out);
  std::vector<Edge> edges;
  edges.reserve(std::uint64_t{n} * avg_out);
  for (vid_t v = per_layer; v < n; ++v) {
    // Cite vertices from a recency window of ~4 layers back, geometric-ish
    // preference for recent work.
    const unsigned cites = std::max(1u, out_deg(rng));
    const vid_t window = std::min<vid_t>(v, per_layer * 4);
    for (unsigned j = 0; j < cites; ++j) {
      const double r = uni(rng) * uni(rng);  // bias toward recent
      const vid_t back = static_cast<vid_t>(r * window);
      const vid_t w = v - 1 - back;
      edges.push_back(Edge{v, w});
    }
  }
  return build_csr(n, std::move(edges));
}

Csr barabasi_albert(vid_t n, unsigned attach, std::uint64_t seed) {
  assert(n > attach && attach >= 1);
  std::mt19937_64 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(std::uint64_t{n} * attach);
  // Repeated-endpoint list: picking a uniform entry is degree-proportional.
  std::vector<vid_t> endpoints;
  endpoints.reserve(2ull * n * attach);
  for (vid_t v = 0; v <= attach; ++v) {
    for (vid_t w = 0; w < v; ++w) {
      edges.push_back(Edge{v, w});
      endpoints.push_back(v);
      endpoints.push_back(w);
    }
  }
  for (vid_t v = attach + 1; v < n; ++v) {
    for (unsigned j = 0; j < attach; ++j) {
      std::uniform_int_distribution<std::size_t> pick(0, endpoints.size() - 1);
      const vid_t w = endpoints[pick(rng)];
      edges.push_back(Edge{v, w});
      endpoints.push_back(v);
      endpoints.push_back(w);
    }
  }
  return build_csr(n, std::move(edges));
}

}  // namespace xbfs::graph
