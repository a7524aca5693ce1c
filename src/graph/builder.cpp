#include "graph/builder.h"

#include <algorithm>
#include <cassert>

namespace xbfs::graph {

Csr build_csr(vid_t n, std::vector<Edge> edges, const BuildOptions& opt) {
  std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  for (const Edge& e : edges) {
    assert(e.u < n && e.v < n && "edge endpoint out of range");
    (void)e;
  }

  // Counting sort by source vertex, both endpoints of an edge at once when
  // symmetrizing: the forward entries first, then the reversed ones, which
  // is each row's order in the symmetrized edge list.
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    if (opt.symmetrize) ++offsets[e.v + 1];
  }
  for (vid_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  std::vector<vid_t> cols(offsets[n]);
  {
    std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : edges) cols[cursor[e.u]++] = e.v;
    if (opt.symmetrize) {
      for (const Edge& e : edges) cols[cursor[e.v]++] = e.u;
    }
  }
  // Free the edge list now: the shrink of `cols` below copies it, and that
  // copy must not overlap the edge list (graph/builder.h).
  std::vector<Edge>().swap(edges);

  // Sort and dedup each row, and move it down to where the previous row
  // ended; `offsets[v + 1]` still holds row v's old end when it is read.
  eid_t out = 0;
  eid_t row_begin = 0;
  for (vid_t v = 0; v < n; ++v) {
    const eid_t row_end = offsets[v + 1];
    auto begin = cols.begin() + static_cast<std::ptrdiff_t>(row_begin);
    auto end = cols.begin() + static_cast<std::ptrdiff_t>(row_end);
    std::sort(begin, end);
    end = std::unique(begin, end);
    if (out != row_begin) {
      std::copy(begin, end, cols.begin() + static_cast<std::ptrdiff_t>(out));
    }
    out += static_cast<eid_t>(end - begin);
    offsets[v + 1] = out;
    row_begin = row_end;
  }
  cols.resize(out);
  cols.shrink_to_fit();
  return Csr(std::move(offsets), std::move(cols));
}

Csr reverse_csr(const Csr& g) {
  const vid_t n = g.num_vertices();
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (eid_t e = 0; e < g.num_edges(); ++e) ++offsets[g.cols()[e] + 1];
  for (vid_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<vid_t> cols(g.num_edges());
  std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t w : g.neighbors(u)) cols[cursor[w]++] = u;
  }
  return Csr(std::move(offsets), std::move(cols));
}

}  // namespace xbfs::graph
