// SimSan sweep — the `check_sanitize` CI gate.
//
// Runs every traversal path in the repository at toy scale with the device
// sanitizer fully on (bounds, init, stale, free, races): the XBFS core in
// every strategy/balancing/stream configuration, all four device baselines,
// the BFS-consumer algorithms (multi-source BFS, betweenness, SCC) and the
// multi-GCD distributed layer.  Then prints the sanitizer summary and fails
// unless
//   - there are ZERO unannotated findings (any would be a real defect or an
//     undocumented race), and
//   - at least one ALLOWLISTED data race was observed (the paper's
//     bottom-up look-ahead and the baselines' benign races must be
//     detected-and-annotated, not invisible — if they stop being reported
//     the sanitizer has gone blind).
//
//   usage: sanitize_sweep [scale] [edge_factor] [seed]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "algos/bc.h"
#include "algos/multi_bfs.h"
#include "algos/scc.h"
#include "baseline/async_sssp.h"
#include "baseline/gunrock_like.h"
#include "baseline/hier_queue.h"
#include "baseline/simple_scan.h"
#include "core/xbfs.h"
#include "graph/builder.h"
#include "graph/device_csr.h"
#include "graph/rmat.h"
#include "hipsim/hipsim.h"
#include "hipsim/sanitizer.h"
#include "shard/shard_bfs.h"

using namespace xbfs;

int main(int argc, char** argv) {
  const unsigned scale = argc > 1 ? std::atoi(argv[1]) : 10;
  const unsigned edge_factor = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 1;

  // Configure BEFORE any device allocation: shadows attach at alloc time.
  // Sanitizer::global() honours XBFS_SANITIZE on first use; when the env
  // var is absent this sweep forces everything on.
  auto& san = sim::Sanitizer::global();
  if (!san.enabled()) san.configure(sim::SanitizeConfig::all_on());

  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  const graph::Csr g = graph::rmat_csr(p);
  const graph::Csr gt = graph::reverse_csr(g);
  std::cout << "sanitize_sweep: RMAT scale " << scale << " (" << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges), modes: ";
  // One device for the single-GCD paths; the sharded store builds its own.
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 2});
  const auto dg = graph::DeviceCsr::upload(dev, g);
  const auto dgt = graph::DeviceCsr::upload(dev, gt);
  {
    sim::SanitizeConfig c = san.config();
    std::cout << (c.bounds ? "bounds " : "") << (c.init ? "init " : "")
              << (c.stale ? "stale " : "") << (c.free ? "free " : "")
              << (c.races ? "races" : "") << "\n";
  }

  const graph::vid_t src = 0;

  // --- XBFS core: adaptive plus every forced strategy and variant ----------
  {
    std::vector<core::XbfsConfig> cfgs;
    cfgs.emplace_back();  // adaptive, all paper defaults
    for (int s = 0; s < 3; ++s) {  // ScanFree / SingleScan / BottomUp
      core::XbfsConfig c;
      c.forced_strategy = s;
      cfgs.push_back(c);
    }
    {
      core::XbfsConfig c;  // bottom-up with the bitmap status check
      c.forced_strategy = static_cast<int>(core::Strategy::BottomUp);
      c.bottomup_bitmap = true;
      cfgs.push_back(c);
      c.bottomup_warp_centric = true;  // and wavefront-centric gather
      cfgs.push_back(c);
    }
    {
      core::XbfsConfig c;  // CUDA-style three degree-binned streams
      c.stream_mode = core::StreamMode::TripleBinned;
      cfgs.push_back(c);
      c = {};
      c.topdown_balancing = core::Balancing::ThreadCentric;
      cfgs.push_back(c);
      c.topdown_balancing = core::Balancing::WavefrontCentric;
      cfgs.push_back(c);
      c = {};
      c.build_parents = true;  // parent-tree recording path
      cfgs.push_back(c);
    }
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      cfgs[i].report_runs = false;
      core::Xbfs bfs(dev, dg, cfgs[i]);
      (void)bfs.run(src);
      std::cout << "  xbfs config " << i << ": ok\n";
    }
  }

  // --- every device baseline ----------------------------------------------
  {
    baseline::SimpleScanBfs scan(dev, dg);
    (void)scan.run(src);
    baseline::HierQueueBfs hq(dev, dg);
    (void)hq.run(src);
    baseline::GunrockLikeBfs gl(dev, dg);
    (void)gl.run(src);
    baseline::AsyncSsspBfs sssp(dev, dg);
    (void)sssp.run(src);
    std::cout << "  baselines: ok\n";
  }

  // --- BFS-consumer algorithms ---------------------------------------------
  {
    const std::vector<graph::vid_t> sources{0, 1, 2, 3};
    (void)algos::multi_source_bfs(dev, dg, sources);
    (void)algos::betweenness_centrality(dev, dg, {0, 1});
    (void)algos::scc_fw_bw(dev, dg, dgt);
    std::cout << "  algos: ok\n";
  }

  // --- distributed layer ----------------------------------------------------
  {
    shard::ShardStoreConfig sc;
    sc.shards = 2;
    shard::ShardedStore store(g, sc);
    shard::ShardSweep sweep(store);
    (void)sweep.run(src, {0, 0});
    std::cout << "  shard sweep (2 GCDs): ok\n";
  }

  san.summary(std::cout);

  const std::uint64_t unannotated = san.unannotated_count();
  const std::uint64_t allowlisted = san.allowlisted_count();
  if (unannotated > 0) {
    std::cout << "sanitize_sweep: FAIL — " << unannotated
              << " unannotated finding(s); fix the defect or document the "
                 "benign race with sim::racy_ok\n";
    return 1;
  }
  if (allowlisted == 0) {
    std::cout << "sanitize_sweep: FAIL — expected the annotated benign races "
                 "(bottom-up look-ahead et al.) to be observed; the race "
                 "detector appears inactive\n";
    return 1;
  }

  // Allowlist hygiene: every racy_ok annotation that executed must have
  // covered at least one logged access.  An annotation that runs but
  // covers nothing is *stale* — the racy code it documented has moved and
  // the allowlist entry would silently excuse a future, different race.
  const auto ann = san.annotation_stats();
  std::cout << "racy_ok annotations (" << ann.size() << "):\n";
  for (const auto& a : ann) {
    std::cout << "  scopes=" << a.scopes_entered
              << " accesses=" << a.annotated_accesses
              << " findings=" << a.allowlisted_findings << " : \"" << a.why
              << "\"\n";
  }
  const auto stale = san.stale_annotations();
  if (!stale.empty()) {
    std::cout << "sanitize_sweep: FAIL — " << stale.size()
              << " stale racy_ok annotation(s) (scope entered, but no "
                 "logged access was covered); delete or re-scope them:\n";
    for (const auto& why : stale) std::cout << "  - \"" << why << "\"\n";
    return 1;
  }
  std::cout << "sanitize_sweep: PASS (0 unannotated, " << allowlisted
            << " allowlisted benign-race findings, " << ann.size()
            << " live annotations, 0 stale)\n";
  return 0;
}
