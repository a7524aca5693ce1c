// google-benchmark microbenches over the substrate primitives: cache model,
// thread pool, wavefront collectives, enqueue schemes, generators and the
// bottom-up prefix-sum pipeline.  These measure *wall time of the simulator
// itself* (host perf), complementing the modelled-time reproduction benches.
#include <benchmark/benchmark.h>

#include <random>

#include "core/kernels_bottomup.h"
#include "core/status.h"
#include "core/xbfs.h"
#include "graph/builder.h"
#include "graph/device_csr.h"
#include "graph/reference.h"
#include "graph/reorder.h"
#include "graph/rmat.h"
#include "hipsim/hipsim.h"

using namespace xbfs;

namespace {

void BM_CacheShardAccess(benchmark::State& state) {
  sim::CacheShard shard(64 * 1024, 128, 16);
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::uint64_t> pick(0, 1 << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shard.access(pick(rng), false));
  }
}
BENCHMARK(BM_CacheShardAccess);

void BM_L2ModelStream(benchmark::State& state) {
  sim::L2Model l2(sim::DeviceProfile::mi250x_gcd(), 64);
  sim::KernelCounters c;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    l2.access(addr, 4, false, c);
    addr += 4;
  }
  benchmark::DoNotOptimize(c.l2_hits);
}
BENCHMARK(BM_L2ModelStream);

void BM_L2ModelRandom(benchmark::State& state) {
  sim::L2Model l2(sim::DeviceProfile::mi250x_gcd(), 64);
  sim::KernelCounters c;
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::uint64_t> pick(0, 256ull << 20);
  for (auto _ : state) {
    l2.access(pick(rng), 4, false, c);
  }
  benchmark::DoNotOptimize(c.l2_misses);
}
BENCHMARK(BM_L2ModelRandom);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  sim::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  const std::function<void(unsigned, std::uint64_t)> fn =
      [&](unsigned, std::uint64_t i) {
        sink.fetch_add(i, std::memory_order_relaxed);
      };
  for (auto _ : state) {
    pool.parallel_for(4096, fn);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(4);

void BM_WavefrontBallot(benchmark::State& state) {
  sim::Device dev(sim::DeviceProfile::test_profile(),
                  sim::SimOptions{.num_workers = 1});
  auto buf = dev.alloc<std::uint32_t>(64);
  auto span = buf.span();
  for (auto _ : state) {
    dev.launch("ballot", sim::LaunchConfig{.grid_blocks = 1, .block_threads = 64},
               [=](sim::BlockCtx& blk) {
                 blk.wavefronts([&](sim::WavefrontCtx& wf, unsigned) {
                   benchmark::DoNotOptimize(
                       wf.ballot([&](unsigned l) { return (l & 1) == 0; }));
                 });
               });
    (void)span;
  }
}
BENCHMARK(BM_WavefrontBallot);

void BM_AggregatedEnqueue(benchmark::State& state) {
  // One atomic per wavefront (ballot-rank aggregation) vs one per lane.
  const bool aggregated = state.range(0) == 1;
  sim::Device dev(sim::DeviceProfile::test_profile(),
                  sim::SimOptions{.num_workers = 1});
  auto queue = dev.alloc<std::uint32_t>(1 << 16);
  auto tail = dev.alloc<std::uint32_t>(1);
  auto qs = queue.span();
  auto ts = tail.span();
  for (auto _ : state) {
    tail.host_data()[0] = 0;
    dev.launch("enqueue",
               sim::LaunchConfig{.grid_blocks = 8, .block_threads = 256},
               [=](sim::BlockCtx& blk) {
                 auto& ctx = blk.ctx();
                 blk.wavefronts([&](sim::WavefrontCtx& wf, unsigned) {
                   if (aggregated) {
                     const std::uint32_t base = ctx.atomic_add(
                         ts, 0, std::uint32_t{64});
                     wf.lanes([&](unsigned l) {
                       ctx.store(qs, base + l, wf.id() * 64u + l);
                     });
                   } else {
                     wf.lanes([&](unsigned l) {
                       const std::uint32_t slot =
                           ctx.atomic_add(ts, 0, std::uint32_t{1});
                       ctx.store(qs, slot, wf.id() * 64u + l);
                     });
                   }
                 });
               });
  }
}
BENCHMARK(BM_AggregatedEnqueue)->Arg(0)->Arg(1);

graph::Csr bench_graph() {
  graph::RmatParams p;
  p.scale = 14;
  p.edge_factor = 8;
  p.seed = 1;
  return graph::rmat_csr(p);
}

void BM_RmatGenerate(benchmark::State& state) {
  graph::RmatParams p;
  p.scale = static_cast<unsigned>(state.range(0));
  p.edge_factor = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::rmat_edges(p));
  }
}
BENCHMARK(BM_RmatGenerate)->Arg(12)->Arg(14);

void BM_CsrBuild(benchmark::State& state) {
  graph::RmatParams p;
  p.scale = 14;
  p.edge_factor = 8;
  auto edges = graph::rmat_edges(p);
  for (auto _ : state) {
    auto copy = edges;
    benchmark::DoNotOptimize(
        graph::build_csr(graph::vid_t{1} << p.scale, std::move(copy)));
  }
}
BENCHMARK(BM_CsrBuild);

void BM_ReferenceBfs(benchmark::State& state) {
  const graph::Csr g = bench_graph();
  const auto giant = graph::largest_component_vertices(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::reference_bfs(g, giant[0]));
  }
}
BENCHMARK(BM_ReferenceBfs);

void BM_RearrangeNeighbors(benchmark::State& state) {
  const graph::Csr g = bench_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::rearrange_neighbors(g, graph::NeighborOrder::ByDegreeDesc));
  }
}
BENCHMARK(BM_RearrangeNeighbors);

void BM_BottomUpPrefixPipeline(benchmark::State& state) {
  // k1-k4 of the double-scan over a half-visited status array.
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 1});
  const graph::Csr g = bench_graph();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::XbfsConfig cfg;
  core::BfsBuffers b = core::BfsBuffers::allocate(
      dev, dg.n, 512,
      core::bu_scan_blocks(dev.profile(), (dg.n + 511) / 512,
                           cfg.block_threads),
      false, false);
  std::mt19937_64 rng(7);
  for (std::uint32_t v = 0; v < dg.n; ++v) {
    b.status.host_data()[v] = (rng() & 1) ? core::kUnvisited : 1u;
  }
  core::BottomUpArgs a;
  a.adj = dg.adjacency();
  a.status = b.status.span();
  a.bu_queue = b.bu_queue.span();
  a.next_queue = b.queue_a.span();
  a.pending_queue = b.pending_a.span();
  a.seg_counts = b.seg_counts.span();
  a.seg_offsets = b.seg_offsets.span();
  a.block_sums = b.block_sums.span();
  a.counters = b.counter_sets[0].counters.span();
  a.edge_counters = b.counter_sets[0].edge_counters.span();
  a.n = dg.n;
  a.num_segments = b.num_segments;
  a.segment_size = b.segment_size;
  a.cur_level = 1;
  for (auto _ : state) {
    core::launch_bu_count(dev, dev.stream(0), a, cfg);
    core::launch_bu_scan_block(dev, dev.stream(0), a, cfg);
    core::launch_bu_scan_final(dev, dev.stream(0), a, cfg);
    core::launch_bu_queue_gen(dev, dev.stream(0), a, cfg);
    benchmark::DoNotOptimize(
        b.counter_sets[0].counters.host_data()[core::kCurTail]);
  }
}
BENCHMARK(BM_BottomUpPrefixPipeline);

}  // namespace

BENCHMARK_MAIN();
