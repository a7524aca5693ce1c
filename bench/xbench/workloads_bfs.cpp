// bfs-rmat and bfs-longdiam: single-source XBFS traversals on one simulated
// GCD, Graph500 style (giant-component sources, every traversal validated
// outside the timed call).
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/xbfs.h"
#include "graph/datasets.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "hipsim/device.h"
#include "workloads.h"

namespace xbench {

namespace {

namespace graph = xbfs::graph;
namespace sim = xbfs::sim;
namespace core = xbfs::core;

struct BfsSpec {
  graph::DatasetId dataset;
  unsigned divisor;        ///< Table II shrink factor
  unsigned smoke_divisor;  ///< toy size for the smoke test
  unsigned sources;        ///< distinct sources per seed
  double tail_q;           ///< tail percentile of the traversal wall time
};

/// Simulator workers of the one GCD.  One worker is the simulator's
/// deterministic mode (modelled values repeat exactly for a seed), and at
/// these sizes it also runs faster and steadier than four workers.
constexpr unsigned kDeviceWorkers = 1;

struct BfsState {
  graph::Csr g;
  std::vector<graph::vid_t> giant;
  std::unique_ptr<sim::Device> dev;
  std::unique_ptr<graph::DeviceCsr> dg;
  std::unique_ptr<core::Xbfs> bfs;

  /// Release the device side, users before what they use.
  void close() {
    bfs.reset();
    dg.reset();
    dev.reset();
  }
};

/// The MI250X GCD with its L2 shrunk by the dataset's divisor, so the
/// cache-to-working-set ratio matches the paper's full-size runs.
sim::DeviceProfile scaled_profile(unsigned divisor) {
  sim::DeviceProfile p = sim::DeviceProfile::mi250x_gcd();
  p.l2_bytes = std::max<std::uint64_t>(p.l2_bytes / divisor, 64 * 1024);
  return p;
}

/// Kernel-time and counter totals over the profiler rows of one kernel
/// family.
struct KernelAgg {
  double ms = 0.0;
  double hbm_us = 0.0;
  std::uint64_t launches = 0;
  sim::KernelCounters c;

  void add(const sim::LaunchRecord& r) {
    ms += r.runtime_ms();
    hbm_us += r.timing.t_hbm_us;
    ++launches;
    c += r.counters;
  }
  double fetch_mb() const {
    return static_cast<double>(c.fetch_bytes) / (1024.0 * 1024.0);
  }
  double mem_busy_pct() const { return ms > 0.0 ? hbm_us / (10.0 * ms) : 0.0; }
};

struct KernelTotals {
  KernelAgg all, bu_expand, bu_scan, singlescan, scanfree;

  void add(const sim::Profiler& prof) {
    for (const sim::LaunchRecord& r : prof.records()) {
      all.add(r);
      const std::string& k = r.kernel;
      if (k.starts_with("xbfs_bu_expand")) {
        bu_expand.add(r);
      } else if (k.starts_with("xbfs_bu_")) {
        bu_scan.add(r);  // count, scan_block, scan_final, queue_gen
      } else if (k.starts_with("xbfs_singlescan_")) {
        singlescan.add(r);
      } else if (k.starts_with("xbfs_scanfree_")) {
        scanfree.add(r);
      }
    }
  }
};

void run_bfs(Ctx& ctx, const BfsSpec& spec) {
  const Options& opt = ctx.opt;
  const unsigned divisor = opt.smoke ? spec.smoke_divisor : spec.divisor;

  BfsState st;
  run_setups(ctx, [&](SetupTimes& t) {
    st.close();
    t.graph_s = timed("setup.graph", [&] {
      st.g = graph::make_dataset(spec.dataset, divisor, opt.seed);
      st.giant = graph::largest_component_vertices(st.g);
    });
    t.load_s = timed("setup.load", [&] {
      st.dev = std::make_unique<sim::Device>(
          scaled_profile(divisor),
          sim::SimOptions{.num_workers = kDeviceWorkers, .profiling = false});
      st.dev->warmup();
      st.dg = std::make_unique<graph::DeviceCsr>(
          graph::DeviceCsr::upload(*st.dev, st.g));
      core::XbfsConfig cfg;
      cfg.report_runs = false;
      st.bfs = std::make_unique<core::Xbfs>(*st.dev, *st.dg, cfg);
    });
  });

  // Sources stratified over the giant component's (ascending) ids from a
  // seeded offset: every seed covers the whole id range, and the layered
  // graph's ids follow its layers, so the source mix is alike across seeds.
  ctx.report.check(!st.giant.empty(), "giant component is empty");
  if (st.giant.empty()) return;
  const std::size_t nsrc = std::min<std::size_t>(spec.sources, st.giant.size());
  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ull + 17);
  const double offset = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  std::vector<graph::vid_t> sources;
  for (std::size_t k = 0; k < nsrc; ++k) {
    const double at = (static_cast<double>(k) + offset) /
                      static_cast<double>(nsrc) *
                      static_cast<double>(st.giant.size());
    sources.push_back(st.giant[static_cast<std::size_t>(at)]);
  }

  measure(ctx, [&](Ctx& c, bool traced) {
    sim::Profiler& prof = st.dev->profiler();
    (void)st.bfs->run(sources.front());  // warm-up, untimed
    prof.clear();
    prof.set_enabled(traced);
    Recorder& rec = Recorder::global();
    std::vector<double> wall_ms;
    // First pass over the sources: modelled-clock and per-layer totals.
    double modelled_ms = 0.0, inv_teps = 0.0, depth = 0.0, bu_levels = 0.0,
           nfg_levels = 0.0;
    KernelTotals kt;

    const double t_end = now_s() + opt.seconds;
    std::size_t i = 0;
    for (; i < nsrc || now_s() < t_end; ++i) {
      const graph::vid_t src = sources[i % nsrc];
      const double t0 = now_s();
      const core::BfsResult r = st.bfs->run(src);
      const double t1 = now_s();
      const int run_span = rec.add("bfs.run", t0, t1);
      wall_ms.push_back((t1 - t0) * 1e3);
      {
        ScopedSpan span("validate", run_span);
        const std::string err =
            graph::validate_levels_graph500(st.g, src, r.levels);
        c.report.check(err.empty(), "traversal from " + std::to_string(src) +
                                        " failed Graph500 validation: " + err);
      }
      if (i < nsrc) {
        modelled_ms += r.total_ms;
        inv_teps += r.gteps > 0.0 ? 1.0 / r.gteps : 0.0;
        depth += r.depth;
        for (const core::LevelStats& ls : r.level_stats) {
          if (ls.strategy == core::Strategy::BottomUp) bu_levels += 1.0;
          if (ls.skipped_generation) nfg_levels += 1.0;
        }
        if (traced) kt.add(prof);
      }
      prof.clear();
      if (i == 0) c.threads.sample();
    }
    prof.set_enabled(false);
    c.report.ops(i, 0);

    const double n = static_cast<double>(nsrc);
    c.report.e2e("modelled_ms", modelled_ms / n, "ms", "modelled", "core",
                 nsrc, "mean");
    if (!traced) {
      report_wall(c, wall_ms, spec.tail_q, 1e3 / mean(wall_ms), "core");
      return median(wall_ms);
    }

    // --- per-layer rows (traced pass only) ---------------------------------
    Report& rep = c.report;
    rep.layer("core.gteps", inv_teps > 0.0 ? n / inv_teps : 0.0, "GTEPS",
              "modelled", "core", nsrc, "harmonic mean");
    auto kernel = [&](const char* name, const KernelAgg& k, bool l2,
                      bool busy) {
      const std::string p = std::string("kernel.") + name;
      rep.layer(p + ".ms", k.ms / n, "ms", "modelled", "core", nsrc);
      rep.layer(p + ".fetch_mb", k.fetch_mb() / n, "MiB", "modelled", "core",
                nsrc);
      if (l2) {
        rep.layer(p + ".l2_hit_pct", k.c.l2_hit_pct(), "%", "modelled",
                  "core", nsrc, "ratio");
      }
      if (busy) {
        rep.layer(p + ".mem_busy_pct", k.mem_busy_pct(), "%", "modelled",
                  "core", nsrc, "ratio");
      }
    };
    kernel("bu_expand", kt.bu_expand, true, true);
    kernel("bu_scan", kt.bu_scan, false, false);
    kernel("singlescan", kt.singlescan, true, false);
    kernel("scanfree", kt.scanfree, false, false);
    rep.layer("kernel.launches", static_cast<double>(kt.all.launches) / n,
              "count", "modelled", "core", nsrc);
    rep.layer("kernel.fixed_ms", (modelled_ms - kt.all.ms) / n, "ms",
              "modelled", "core", nsrc);
    rep.layer("level.depth", depth / n, "count", "modelled", "core", nsrc);
    rep.layer("level.bottomup_levels", bu_levels / n, "count", "modelled",
              "core", nsrc);
    rep.layer("level.nfg_levels", nfg_levels / n, "count", "modelled", "core",
              nsrc);
    rep.layer("hbm.fetch_mb", kt.all.fetch_mb() / n, "MiB", "modelled",
              "hipsim", nsrc);
    const double bytes = static_cast<double>(kt.all.c.fetch_bytes +
                                             kt.all.c.writeback_bytes);
    rep.layer("hbm.bw_eff_pct",
              modelled_ms > 0.0 ? 100.0 * bytes / (modelled_ms * 1e3) /
                                      st.dev->profile().hbm_bytes_per_us
                                : 0.0,
              "%", "modelled", "hipsim", nsrc, "ratio");
    // Every pass over the sources is the same work, so the mean wall time
    // of all traversals compares with the first pass's modelled mean.
    rep.layer("hipsim.wall_per_modelled",
              modelled_ms > 0.0 ? mean(wall_ms) / (modelled_ms / n) : 0.0,
              "ratio", "wall", "hipsim", wall_ms.size(), "ratio");
    rep.layer("hipsim.device_mb",
              static_cast<double>(st.dev->allocated_bytes()) /
                  (1024.0 * 1024.0),
              "MiB", "modelled", "hipsim", 1, "total");

    report_cpu_baseline(c, st.g, sources);
    return median(wall_ms);
  });
}

}  // namespace

// R25 (Graph500 RMAT scale 25, edge factor 16) shrunk by the divisor.
void run_bfs_rmat(Ctx& ctx) {
  run_bfs(ctx, BfsSpec{.dataset = graph::DatasetId::R25,
                       .divisor = 256,
                       .smoke_divisor = 8192,
                       .sources = 64,
                       .tail_q = 0.9});
}

// USpatent stand-in: layered citation graph, long diameter.
void run_bfs_longdiam(Ctx& ctx) {
  run_bfs(ctx, BfsSpec{.dataset = graph::DatasetId::UP,
                       .divisor = 256,
                       .smoke_divisor = 4096,
                       .sources = 64,
                       .tail_q = 0.9});
}

}  // namespace xbench
