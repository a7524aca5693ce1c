// Example: dataset exploration — builds any of the Table II stand-ins (or
// loads an edge-list file), prints degree statistics, the per-level
// frontier-edge ratio curve that drives XBFS's adaptive policy, and the
// strategy schedule XBFS actually chooses.
//
//   ./dataset_explorer LJ|UP|OR|DB|R23|R25 [scale_divisor] [seed] [--tune]
//   ./dataset_explorer --file edges.txt
//
// --tune additionally runs the alpha auto-tuner (forced-strategy probes,
// paper Sec. V-D methodology) and prints the recommended threshold.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/report.h"
#include "core/tuner.h"
#include "core/xbfs.h"
#include "graph/datasets.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/io.h"
#include "graph/reference.h"
#include "graph/stats.h"

int main(int argc, char** argv) {
  using namespace xbfs;

  bool tune = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tune") == 0) {
      tune = true;
      --argc;  // consume (must be the last argument)
    }
  }

  graph::Csr g;
  std::string label;
  if (argc >= 3 && std::strcmp(argv[1], "--file") == 0) {
    graph::vid_t n = 0;
    auto edges = graph::read_edge_list_text(argv[2], &n);
    g = graph::build_csr(n, std::move(edges));
    label = argv[2];
  } else {
    const std::string name = argc > 1 ? argv[1] : "R25";
    const unsigned divisor =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 64;
    const std::uint64_t seed =
        argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 1;
    const graph::DatasetId id = graph::dataset_from_name(name);
    const graph::DatasetMeta& meta = graph::dataset_meta(id);
    g = graph::make_dataset(id, divisor, seed);
    label = meta.paper_name + " stand-in (" + meta.substitution + ")";
  }

  std::cout << "dataset: " << label << "\n";
  std::cout << "|V| = " << g.num_vertices() << ", |E| = " << g.num_edges()
            << ", payload " << (g.payload_bytes() >> 20) << " MB\n";

  const graph::DegreeStats ds = graph::degree_stats(g);
  std::printf(
      "degrees: mean %.2f, median %.0f, p90 %.0f, p99 %.0f, max %u, "
      "isolated %llu\n",
      ds.mean, ds.p50, ds.p90, ds.p99, ds.max_degree,
      static_cast<unsigned long long>(ds.isolated));

  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant.front();
  std::cout << "giant component: " << giant.size() << " vertices; BFS from "
            << src << "\n\n";

  const auto ratio = graph::frontier_edge_ratio(g, src);
  std::cout << "frontier-edge ratio per level (drives the adaptive policy, "
               "alpha = 0.1):\n";
  for (std::size_t lvl = 0; lvl < ratio.size(); ++lvl) {
    const double log2r = ratio[lvl] > 0 ? std::log2(ratio[lvl]) : -99;
    std::printf("  level %2zu: ratio %9.3e (log2 %6.1f) %s\n", lvl,
                ratio[lvl], log2r, ratio[lvl] > 0.1 ? "<-- bottom-up zone" : "");
  }

  sim::Device dev(sim::DeviceProfile::mi250x_gcd());
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  const core::BfsResult r = bfs.run(src);
  std::cout << "\nXBFS schedule:\n";
  core::print_schedule(std::cout, r);

  const std::string err = graph::validate_levels_graph500(g, src, r.levels);
  std::cout << "validation: " << (err.empty() ? "OK" : err) << "\n";

  if (tune) {
    std::cout << "\nalpha auto-tuning (forced-strategy probes):\n";
    core::TunerOptions topt;
    topt.probe_sources = {src};
    if (giant.size() > 2) topt.probe_sources.push_back(giant[giant.size() / 2]);
    const core::TunerReport rep =
        core::tune_alpha(sim::DeviceProfile::mi250x_gcd(), g, topt);
    std::printf(
        "  samples: %zu   bracket: [%.3e, %.3e] %s\n"
        "  recommended alpha: %.4f (paper default: 0.1)\n",
        rep.samples.size(), rep.bracket_low, rep.bracket_high,
        rep.bracket_found ? "(found)" : "(not bracketed)",
        rep.recommended_alpha);
  }
  return err.empty() ? 0 : 1;
}
