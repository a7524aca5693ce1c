#include "graph/rmat.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <random>

namespace xbfs::graph {

std::vector<Edge> rmat_edges(const RmatParams& p) {
  assert(p.a + p.b + p.c < 1.0 + 1e-9);
  const vid_t n = vid_t{1} << p.scale;
  const std::uint64_t m = std::uint64_t{p.edge_factor} << p.scale;

  std::mt19937_64 rng(p.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    vid_t u = 0, v = 0;
    double a = p.a, b = p.b, c = p.c;
    for (unsigned bit = p.scale; bit-- > 0;) {
      const double r = uni(rng);
      if (r < a) {
        // upper-left: no bits set
      } else if (r < a + b) {
        v |= vid_t{1} << bit;
      } else if (r < a + b + c) {
        u |= vid_t{1} << bit;
      } else {
        u |= vid_t{1} << bit;
        v |= vid_t{1} << bit;
      }
      if (p.noise > 0) {
        // Graph500-style weight perturbation per recursion level.
        const double f = 1.0 - p.noise / 2.0 + p.noise * uni(rng);
        a *= f;
        b *= f;
        c *= f;
        const double d = std::max(1e-12, 1.0 - (p.a + p.b + p.c)) * f;
        const double norm = a + b + c + d;
        a /= norm;
        b /= norm;
        c /= norm;
      }
    }
    edges.push_back(Edge{u, v});
  }

  if (p.permute_labels) {
    std::vector<vid_t> perm(n);
    std::iota(perm.begin(), perm.end(), vid_t{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    for (Edge& e : edges) {
      e.u = perm[e.u];
      e.v = perm[e.v];
    }
  }
  return edges;
}

Csr rmat_csr(const RmatParams& params) {
  const vid_t n = vid_t{1} << params.scale;
  return build_csr(n, rmat_edges(params));
}

}  // namespace xbfs::graph
