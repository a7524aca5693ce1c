// Helpers shared by the workloads: inputs, the CPU baseline, and the
// served-traffic rows of traffic.h.
#include <algorithm>
#include <random>
#include <vector>

#include "baseline/cpu_bfs.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "traffic.h"
#include "workloads.h"

namespace xbench {

namespace graph = xbfs::graph;
namespace serve = xbfs::serve;

graph::Csr make_rmat(unsigned scale, std::uint64_t seed) {
  graph::RmatParams rp;
  rp.scale = scale;
  rp.edge_factor = 16;
  rp.seed = seed;
  return graph::rmat_csr(rp);
}

std::vector<graph::vid_t> shuffled_giant(const graph::Csr& g,
                                         std::uint64_t seed) {
  std::vector<graph::vid_t> v = graph::largest_component_vertices(g);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 29);
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

void report_serving_layers(Ctx& ctx, const std::vector<Sent>& phase) {
  std::vector<double> submit_us, queue_ms, service_ms, late_ms;
  for (const Sent& s : phase) {
    submit_us.push_back(s.submit_s * 1e6);
    late_ms.push_back((s.sent_s - s.due_s) * 1e3);
    if (!s.completed()) continue;
    queue_ms.push_back(s.result.queue_ms);
    service_ms.push_back(s.result.service_ms);
  }
  Report& rep = ctx.report;
  rep.layer("serve.submit_us_p99", percentile(submit_us, 0.99), "us", "wall",
            "serve", submit_us.size(), "p99");
  rep.layer("serve.queue_p99_ms", percentile(queue_ms, 0.99), "ms", "wall",
            "serve", queue_ms.size(), "p99");
  rep.layer("serve.service_p99_ms", percentile(service_ms, 0.99), "ms",
            "wall", "serve", service_ms.size(), "p99");
  rep.layer("load.lateness_p99_ms", percentile(late_ms, 0.99), "ms", "wall",
            "serve", late_ms.size(), "p99");
}

double modelled_query_ms(const serve::QueryResult& r) {
  if (r.cache_hit || r.trace == nullptr) return 0.0;
  double us = 0.0;
  for (const xbfs::obs::RungAttribution& a : r.trace->rungs()) {
    us += a.modelled_us;
  }
  return us / 1e3;
}

void report_cpu_baseline(Ctx& ctx, const graph::Csr& g,
                         const std::vector<graph::vid_t>& sources) {
  std::vector<double> cpu_ms;
  for (std::size_t k = 0; k < std::min<std::size_t>(sources.size(), 4); ++k) {
    ScopedSpan span("baseline.cpu_bfs");
    cpu_ms.push_back(xbfs::baseline::cpu_bfs_serial(g, sources[k]).wall_ms);
  }
  ctx.report.layer("baseline.cpu_bfs_ms", median(cpu_ms), "ms", "wall",
                   "baseline", cpu_ms.size(), "median");
}

void report_rung_ratio(Ctx& ctx, const std::vector<Sent>& phase) {
  double wall_us = 0.0, modelled_us = 0.0;
  std::size_t n = 0;
  for (const Sent& s : phase) {
    if (!s.completed() || s.result.trace == nullptr) continue;
    ++n;
    for (const xbfs::obs::RungAttribution& a : s.result.trace->rungs()) {
      wall_us += a.wall_dur_us;
      modelled_us += a.modelled_us;
    }
  }
  ctx.report.layer("hipsim.wall_per_modelled",
                   modelled_us > 0.0 ? wall_us / modelled_us : 0.0, "ratio",
                   "wall", "hipsim", n, "ratio");
}

}  // namespace xbench
