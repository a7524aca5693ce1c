// Quickstart: generate a Graph500 RMAT graph, run adaptive XBFS on the
// simulated MI250X GCD, validate against the serial reference and print the
// per-level strategy schedule and throughput.
//
//   ./quickstart [scale] [edge_factor] [seed]
#include <cstdlib>
#include <iostream>

#include "baseline/cpu_bfs.h"
#include "core/report.h"
#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "graph/rmat.h"

int main(int argc, char** argv) {
  using namespace xbfs;

  graph::RmatParams params;
  params.scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 16;
  params.edge_factor =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 16;
  params.seed = argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 1;

  std::cout << "Generating RMAT scale=" << params.scale
            << " edge_factor=" << params.edge_factor << " ...\n";
  const graph::Csr g = graph::rmat_csr(params);
  std::cout << "  |V| = " << g.num_vertices() << ", |E| = " << g.num_edges()
            << " (directed entries), avg degree = " << g.avg_degree() << "\n";

  // Pick a source from the largest component, as Graph500 does.
  const auto component = graph::largest_component_vertices(g);
  const graph::vid_t src = component.front();

  sim::Device dev(sim::DeviceProfile::mi250x_gcd());
  dev.warmup();  // pay the HIP module-load cost off the measured path
  auto dg = graph::DeviceCsr::upload(dev, g);

  core::Xbfs bfs(dev, dg);
  const core::BfsResult r = bfs.run(src);

  const std::string err = graph::validate_levels_graph500(g, src, r.levels);
  std::cout << "\nBFS from source " << src << ": depth " << r.depth
            << ", validation " << (err.empty() ? "OK" : "FAILED: " + err)
            << "\n\n";
  core::print_schedule(std::cout, r);

  const auto cpu = baseline::cpu_bfs_serial(g, src);
  std::printf("serial CPU reference: %.3f ms (%.3f GTEPS wall-clock)\n",
              cpu.wall_ms, cpu.gteps);
  return err.empty() ? 0 : 1;
}
