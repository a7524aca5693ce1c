// The five xbench workloads (README.md says why each exists).  Each sets
// up several times (setup_s), then measures through xbench::measure, and
// records its rows and correctness checks into ctx.report.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "harness.h"

namespace xbench {

void run_bfs_rmat(Ctx& ctx);
void run_bfs_longdiam(Ctx& ctx);
void run_serve_zipf(Ctx& ctx);
void run_churn_durable(Ctx& ctx);
void run_shard_serve(Ctx& ctx);

// --- shared by the workloads (common.cpp) -----------------------------------

/// Graph500 RMAT, edge factor 16.
xbfs::graph::Csr make_rmat(unsigned scale, std::uint64_t seed);

/// The giant component in a seed-determined order.
std::vector<xbfs::graph::vid_t> shuffled_giant(const xbfs::graph::Csr& g,
                                               std::uint64_t seed);

/// baseline.cpu_bfs_ms: the serial host BFS on (up to four of) `sources`.
void report_cpu_baseline(Ctx& ctx, const xbfs::graph::Csr& g,
                         const std::vector<xbfs::graph::vid_t>& sources);

}  // namespace xbench
