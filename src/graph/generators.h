// Synthetic generator families used as stand-ins for the SNAP datasets in
// Table II (LiveJournal, USpatent, Orkut, Dblp).  Each family is chosen to
// match the characteristic that drives XBFS's per-level behaviour: degree
// skew (strategy crossovers) and diameter class (number of BFS levels).
#pragma once

#include <cstdint>

#include "graph/builder.h"
#include "graph/csr.h"

namespace xbfs::graph {

/// Erdos-Renyi G(n, m): uniform random edges; short diameter, no skew.
Csr erdos_renyi(vid_t n, std::uint64_t target_edges, std::uint64_t seed);

/// Watts-Strogatz small world: ring of n vertices, each joined to its k
/// nearest neighbours, each edge rewired with probability beta.  Clustered,
/// moderate diameter — the DBLP collaboration-graph stand-in.
Csr small_world(vid_t n, unsigned k, double beta, std::uint64_t seed);

/// Layered citation-style graph: vertices are ordered into `layers` layers;
/// each vertex cites `avg_out` earlier vertices drawn from a recency window.
/// Low degree, long diameter — the USpatent stand-in (the dataset the paper
/// notes "requires more levels").
Csr layered_citation(vid_t n, unsigned layers, unsigned avg_out,
                     std::uint64_t seed);

/// Barabasi-Albert preferential attachment: each new vertex attaches to
/// `attach` existing vertices with probability proportional to degree.
/// Heavy-tailed degrees with a connected core.
Csr barabasi_albert(vid_t n, unsigned attach, std::uint64_t seed);

}  // namespace xbfs::graph
