#include "dyn/incremental_bfs.h"

#include <stdexcept>

#include "core/report.h"
#include "core/status.h"

namespace xbfs::dyn {

using graph::vid_t;

namespace {

/// The traversal's config: this engine reports its own runs, and serving
/// reads levels only.
core::XbfsConfig traversal_config(core::XbfsConfig cfg) {
  cfg.report_runs = false;
  cfg.build_parents = false;
  return cfg;
}

}  // namespace

IncrementalBfs::IncrementalBfs(DeviceMirror& mirror, core::XbfsConfig cfg)
    : mirror_(mirror),
      cfg_(cfg),
      xbfs_(mirror.device(), mirror.csr(), traversal_config(cfg)) {}

core::BfsResult IncrementalBfs::run(vid_t src) {
  sim::Device& dev = mirror_.device();
  const double t0_us = dev.now_us();
  const std::size_t prof_start = dev.profiler().records().size();
  const vid_t n = mirror_.csr().n;
  if (src >= n) throw std::invalid_argument("IncrementalBfs: bad source");
  const Snapshot snap = mirror_.sync();
  const DeltaCsr& g = *snap.graph;

  core::BfsResult result = xbfs_.run(src);
  // Xbfs sums base row lengths; the edges traversed are the live graph's.
  std::uint64_t reached_degree = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (result.levels[v] >= 0) reached_degree += g.degree(v);
  }
  result.total_ms = (dev.now_us() - t0_us) / 1000.0;
  result.edges_traversed = reached_degree / 2;
  result.gteps = core::safe_gteps(result.edges_traversed, result.total_ms);
  mirror_.charge(result.total_ms);
  if (cfg_.report_runs) {
    core::record_run(result, "incremental_bfs", n, g.num_edges(),
                     static_cast<std::int64_t>(src), &cfg_,
                     &dev.profiler(), prof_start);
  }
  return result;
}

}  // namespace xbfs::dyn
