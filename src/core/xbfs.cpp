#include "core/xbfs.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/kernels_bottomup.h"
#include "core/kernels_topdown.h"
#include "core/report.h"
#include "core/status.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xbfs::core {

using graph::eid_t;
using graph::vid_t;

namespace {

/// Fail construction loudly on a nonsense configuration instead of
/// clamping it into something the caller never asked for.
void check_config(const XbfsConfig& cfg) {
  if (const Status s = cfg.validate(); !s.ok()) {
    throw std::invalid_argument("XbfsConfig: " + s.to_string());
  }
}

std::uint32_t pick_segment_size(const sim::DeviceProfile& profile,
                                const XbfsConfig& cfg) {
  const unsigned w = profile.wavefront_size;
  std::uint32_t seg = cfg.bu_segment_size != 0 ? cfg.bu_segment_size : 512;
  // "The length of each segment is made evenly divisible by ... the number
  // of threads in a warp" (paper Sec. III-C).
  seg = (seg + w - 1) / w * w;
  return std::max<std::uint32_t>(seg, w);
}

}  // namespace

struct Xbfs::FrontierState {
  sim::dspan<const vid_t> cur_queue;
  sim::dspan<vid_t> cur_queue_mut;  ///< same buffer, for generation scans
  sim::dspan<vid_t> next_queue;
  sim::dspan<vid_t> pending_queue;  ///< this pass's look-ahead output
  // Bit-status extension (empty when disabled).
  sim::dspan<const std::uint64_t> bitmap_cur;
  sim::dspan<std::uint64_t> bitmap_next;
  sim::dspan<std::uint64_t> bitmap_nextnext;
  CounterSet* counters = nullptr;  ///< this level's set
  CounterSpans next_counters;      ///< zeroed by the level's first kernel
  std::uint32_t cur_count = 0;
  std::uint32_t unclaimed = 0;  ///< host estimate of bottom-up candidates
  // Per-level accumulation (filled by the run_* methods).
  mutable sim::KernelCounters accum;
  mutable unsigned kernels = 0;

  void add(const sim::LaunchResult& r) const {
    accum += r.counters;
    ++kernels;
  }
};

Xbfs::Xbfs(sim::Device& dev, const graph::DeviceCsr& g, XbfsConfig cfg)
    : dev_(dev),
      g_(g),
      cfg_((check_config(cfg), cfg)),
      policy_(cfg),
      buffers_(BfsBuffers::allocate(
          dev, g.n, pick_segment_size(dev.profile(), cfg),
          bu_scan_blocks(dev.profile(),
                         (g.n + pick_segment_size(dev.profile(), cfg) - 1) /
                             pick_segment_size(dev.profile(), cfg),
                         cfg.block_threads),
          cfg.build_parents,
          cfg.stream_mode == StreamMode::TripleBinned,
          cfg.bottomup_bitmap)) {
  if (cfg_.stream_mode == StreamMode::TripleBinned) {
    bin_streams_[0] = &dev_.create_stream("bin-small");
    bin_streams_[1] = &dev_.create_stream("bin-medium");
    bin_streams_[2] = &dev_.create_stream("bin-large");
  }
}

void Xbfs::run_scanfree(const FrontierState& fs, std::uint32_t level) {
  sim::Stream& s = dev_.stream(0);
  TopDownArgs a;
  a.offsets = g_.offsets_span();
  a.cols = g_.cols_span();
  a.status = buffers_.status.span();
  if (!buffers_.parent.empty()) a.parent = buffers_.parent.span();
  a.queue = fs.cur_queue;
  a.queue_size = fs.cur_count;
  a.next_queue = fs.next_queue;
  a.counters = fs.counters->counters.span();
  a.edge_counters = fs.counters->edge_counters.span();
  a.next_counters = fs.next_counters;
  a.bitmap_next = fs.bitmap_next;
  a.cur_level = level;

  if (cfg_.stream_mode == StreamMode::Single) {
    fs.add(launch_scanfree_expand(dev_, s, a, cfg_));
    return;
  }

  // CUDA XBFS's three-stream design: classify the frontier into degree bins
  // and expand each bin with a dedicated kernel on its own stream.  On the
  // MI250X profile the cross-stream joins cost more than the overlap saves —
  // the paper's reason to consolidate into one stream.
  fs.add(launch_classify_bins(dev_, s, a, buffers_.bin_small.span(),
                              buffers_.bin_medium.span(),
                              buffers_.bin_large.span(), cfg_));
  a.next_counters = {};  // zeroed by the classification
  // Host reads the three bin sizes to size the launches (a partial copy,
  // so the modelled byte count stays 3 words; the sync mark is manual).
  const auto& counters = fs.counters->counters;
  dev_.memcpy_d2h(s, 3 * sizeof(std::uint32_t));
  counters.mark_host_synced();
  const std::uint32_t n_small = counters.h_read(kBinSmall);
  const std::uint32_t n_medium = counters.h_read(kBinMedium);
  const std::uint32_t n_large = counters.h_read(kBinLarge);

  std::vector<sim::Stream*> all = {&s, bin_streams_[0], bin_streams_[1],
                                   bin_streams_[2]};
  dev_.join_streams(all);  // expansions wait on classification
  if (n_small > 0) {
    fs.add(launch_scanfree_expand_bin(dev_, *bin_streams_[0], a,
                                      buffers_.bin_small.cspan(), n_small,
                                      Balancing::ThreadCentric,
                                      "xbfs_scanfree_expand_small", cfg_));
  }
  if (n_medium > 0) {
    fs.add(launch_scanfree_expand_bin(dev_, *bin_streams_[1], a,
                                      buffers_.bin_medium.cspan(), n_medium,
                                      Balancing::WavefrontCentric,
                                      "xbfs_scanfree_expand_medium", cfg_));
  }
  if (n_large > 0) {
    fs.add(launch_scanfree_expand_bin(dev_, *bin_streams_[2], a,
                                      buffers_.bin_large.cspan(), n_large,
                                      Balancing::WavefrontCentric,
                                      "xbfs_scanfree_expand_large", cfg_));
  }
  dev_.join_streams(all);  // the level boundary waits on all three bins
}

void Xbfs::run_singlescan(const FrontierState& fs, std::uint32_t level,
                          bool skip_generation) {
  sim::Stream& s = dev_.stream(0);
  TopDownArgs a;
  a.offsets = g_.offsets_span();
  a.cols = g_.cols_span();
  a.status = buffers_.status.span();
  if (!buffers_.parent.empty()) a.parent = buffers_.parent.span();
  a.queue = fs.cur_queue;
  // The generated size stays on the device; the host's count from the last
  // readback bounds it and sizes the grid.
  a.queue_size = fs.cur_count;
  a.queue_size_on_device = !skip_generation;
  a.next_queue = fs.next_queue;  // unused: single-scan builds no queue
  a.counters = fs.counters->counters.span();
  a.edge_counters = fs.counters->edge_counters.span();
  a.bitmap_next = fs.bitmap_next;
  a.cur_level = level;
  if (skip_generation) {
    a.next_counters = fs.next_counters;
  } else {
    fs.add(launch_singlescan_generate(dev_, s, buffers_.status.span(),
                                      fs.cur_queue_mut, a.counters, level,
                                      cfg_, fs.next_counters));
  }
  fs.add(launch_singlescan_expand(dev_, s, a, cfg_));
}

void Xbfs::run_bottomup(const FrontierState& fs, std::uint32_t level) {
  sim::Stream& s = dev_.stream(0);
  BottomUpArgs a;
  a.offsets = g_.offsets_span();
  a.cols = g_.cols_span();
  a.status = buffers_.status.span();
  if (!buffers_.parent.empty()) a.parent = buffers_.parent.span();
  a.bu_queue = buffers_.bu_queue.span();
  a.next_queue = fs.next_queue;
  a.pending_queue = fs.pending_queue;
  a.seg_counts = buffers_.seg_counts.span();
  a.seg_offsets = buffers_.seg_offsets.span();
  a.block_sums = buffers_.block_sums.span();
  a.counters = fs.counters->counters.span();
  a.edge_counters = fs.counters->edge_counters.span();
  a.next_counters = fs.next_counters;
  a.bitmap_cur = fs.bitmap_cur;
  a.bitmap_next = fs.bitmap_next;
  a.bitmap_nextnext = fs.bitmap_nextnext;
  a.n = g_.n;
  a.num_segments = buffers_.num_segments;
  a.segment_size = buffers_.segment_size;
  a.cur_level = level;

  fs.add(launch_bu_count(dev_, s, a, cfg_));
  fs.add(launch_bu_scan_block(dev_, s, a, cfg_));
  fs.add(launch_bu_scan_final(dev_, s, a, cfg_));
  fs.add(launch_bu_queue_gen(dev_, s, a, cfg_));
  // k5 reads the candidate total k3 left on the device; the host's count
  // of unclaimed vertices estimates it and sizes the grid.
  fs.add(launch_bu_expand(dev_, s, a, fs.unclaimed, cfg_));
}

namespace {

/// Per-level telemetry fan-out: one "level N" span on the bfs track, one
/// strategy-decision instant on the policy track, plus decision counters.
void emit_level_telemetry(sim::Device& dev, const LevelStats& st,
                          double level_t0_us, double level_end_us) {
  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    obs::Span sp;
    sp.name = "level " + std::to_string(st.level);
    sp.category = "level";
    sp.track = "bfs";
    sp.pid = dev.trace_pid();
    sp.sim_start_us = level_t0_us;
    sp.sim_dur_us = level_end_us - level_t0_us;
    sp.attr("strategy", std::string(strategy_name(st.strategy)));
    sp.attr("nfg", st.skipped_generation);
    sp.attr("frontier", st.frontier_count);
    sp.attr("edges", st.frontier_edges);
    sp.attr("ratio", st.ratio);
    sp.attr("fetch_kb", st.fetch_kb);
    sp.attr("kernels", static_cast<std::uint64_t>(st.kernels));
    tr.complete(std::move(sp));

    std::vector<obs::SpanAttr> attrs;
    attrs.push_back({"ratio", obs::json_number(st.ratio), true});
    attrs.push_back({"nfg", st.skipped_generation ? "true" : "false", true});
    tr.instant(std::string("decide:") + strategy_name(st.strategy),
               "strategy", "policy", dev.trace_pid(), level_t0_us,
               std::move(attrs));
  }
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.counter(std::string("xbfs.decision.") + strategy_name(st.strategy))
        .add();
    if (st.skipped_generation) mx.counter("xbfs.decision.nfg").add();
    mx.histogram("xbfs.level_ms").observe(st.time_ms);
  }
}

}  // namespace

BfsResult Xbfs::run(vid_t src) {
  if (src >= g_.n) {
    throw std::invalid_argument("Xbfs::run: source " + std::to_string(src) +
                                " out of range for " + std::to_string(g_.n) +
                                " vertices");
  }
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  const std::size_t prof_start = dev_.profiler().records().size();
  BfsResult result;

  dev_.profiler().set_context(-1, "setup");
  launch_init(dev_, s, buffers_, src, cfg_.block_threads);
  const bool bitmaps_on = cfg_.bottomup_bitmap;

  // Level-0 frontier metadata: the host already holds the offsets.
  const eid_t* offsets_host = g_.offsets.host_data();
  std::uint64_t cur_count = 1;
  std::uint64_t cur_edges = offsets_host[src + 1] - offsets_host[src];
  std::uint64_t claimed = 1;  // vertices with a status, for k5's grid

  bool use_a_queue = true;
  bool use_a_pending = true;
  std::uint64_t carry_count = 0, carry_edges = 0;

  LevelInputs in0;
  in0.level = 0;
  in0.frontier_count = cur_count;
  in0.frontier_edges = cur_edges;
  in0.prev_frontier_count = 0;
  in0.total_edges = g_.m;
  in0.queue_available = true;
  in0.has_prev = false;
  LevelDecision decision = policy_.decide(in0);

  for (std::uint32_t level = 0;; ++level) {
    dev_.profiler().set_context(
        static_cast<int>(level), strategy_name(decision.strategy));
    const double level_t0 = dev_.now_us();

    FrontierState fs;
    auto& curq = use_a_queue ? buffers_.queue_a : buffers_.queue_b;
    auto& nextq = use_a_queue ? buffers_.queue_b : buffers_.queue_a;
    auto& pendq = use_a_pending ? buffers_.pending_a : buffers_.pending_b;
    auto& carried_pendq = use_a_pending ? buffers_.pending_b
                                        : buffers_.pending_a;
    fs.cur_queue = curq.cspan();
    fs.cur_queue_mut = curq.span();
    fs.next_queue = nextq.span();
    fs.pending_queue = pendq.span();
    fs.counters = &buffers_.counter_sets[level & 1];
    fs.next_counters = buffers_.counter_sets[(level + 1) & 1].spans();
    fs.cur_count = static_cast<std::uint32_t>(cur_count);
    fs.unclaimed = static_cast<std::uint32_t>(
        claimed < g_.n ? g_.n - claimed : 0);
    if (bitmaps_on) {
      // Rotate the three frontier bitmaps; the incoming next-next map still
      // holds level-(k-1) bits and must be wiped before look-ahead claims
      // land in it.
      fs.bitmap_cur = buffers_.bitmaps[level % 3].cspan();
      fs.bitmap_next = buffers_.bitmaps[(level + 1) % 3].span();
      fs.bitmap_nextnext = buffers_.bitmaps[(level + 2) % 3].span();
      if (level > 0) {
        launch_clear_bitmap(dev_, s, fs.bitmap_nextnext, cfg_.block_threads);
      }
    }

    switch (decision.strategy) {
      case Strategy::ScanFree:
        run_scanfree(fs, level);
        break;
      case Strategy::SingleScan:
        run_singlescan(fs, level, decision.skip_generation);
        break;
      case Strategy::BottomUp:
        run_bottomup(fs, level);
        break;
    }
    // The level's one host round trip (Sec. IV-B cost): wait, then read
    // its counter set.
    s.synchronize();
    const LevelCounters lc = read_counters(dev_, s, *fs.counters);

    const bool built_queue = decision.strategy != Strategy::SingleScan;
    const std::uint64_t next_count_raw =
        built_queue ? lc.next_count : lc.new_count;
    const std::uint64_t next_count = next_count_raw + carry_count;
    const std::uint64_t next_edges = lc.next_edges + carry_edges;

    LevelStats st;
    st.level = level;
    st.strategy = decision.strategy;
    st.skipped_generation = decision.strategy == Strategy::SingleScan &&
                            decision.skip_generation;
    // A generation scan sizes the frontier it expands on the device.
    const bool generated =
        decision.strategy == Strategy::SingleScan && !st.skipped_generation;
    st.frontier_count = generated ? lc.cur_count : fs.cur_count;
    st.frontier_edges = cur_edges;
    st.ratio = decision.ratio;
    st.fetch_kb = fs.accum.fetch_kb();
    st.kernels = fs.kernels;
    st.time_ms = (dev_.now_us() - level_t0) / 1000.0;
    emit_level_telemetry(dev_, st, level_t0, dev_.now_us());
    result.level_stats.push_back(st);

    if (next_count == 0 && lc.pending_count == 0) break;

    LevelInputs in;
    in.level = level + 1;
    in.frontier_count = next_count;
    in.frontier_edges = next_edges;
    in.prev_frontier_count = cur_count;
    in.total_edges = g_.m;
    in.queue_available = built_queue;
    in.has_prev = true;
    in.prev_strategy = decision.strategy;
    const LevelDecision next_decision = policy_.decide(in);

    // Merge the carried look-ahead vertices (level+1) into the next queue
    // when the next pass consumes that queue as its frontier.
    const bool consumes_queue =
        built_queue &&
        (next_decision.strategy == Strategy::ScanFree ||
         (next_decision.strategy == Strategy::SingleScan &&
          next_decision.skip_generation));
    if (consumes_queue && carry_count > 0) {
      launch_append_queue(dev_, s, carried_pendq.cspan(),
                          static_cast<std::uint32_t>(carry_count),
                          fs.next_queue,
                          static_cast<std::uint32_t>(next_count_raw),
                          cfg_.block_threads);
    }

    claimed += next_count_raw + lc.pending_count;
    carry_count = lc.pending_count;
    carry_edges = lc.pending_edges;
    use_a_pending = !use_a_pending;
    if (built_queue) use_a_queue = !use_a_queue;

    cur_count = next_count;
    cur_edges = next_edges;
    decision = next_decision;
  }

  // Read the status (and parent) arrays back to the host; the typed copies
  // charge the same n-word transfers and mark the buffers host-synced.
  const std::uint64_t n = g_.n;
  dev_.memcpy_d2h(s, buffers_.status);
  result.levels.resize(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint32_t st = buffers_.status.h_read(v);
    result.levels[v] = st == kUnvisited ? std::int32_t{-1}
                                        : static_cast<std::int32_t>(st);
  }
  if (!buffers_.parent.empty()) {
    dev_.memcpy_d2h(s, buffers_.parent);
    const graph::vid_t* parent_host = std::as_const(buffers_.parent).host_data();
    result.parent.assign(parent_host, parent_host + n);
  }
  s.synchronize();

  result.depth = static_cast<std::uint32_t>(result.level_stats.size());
  result.total_ms = (dev_.now_us() - t0_us) / 1000.0;
  std::uint64_t reached_degree = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (result.levels[v] >= 0) {
      reached_degree += offsets_host[v + 1] - offsets_host[v];
    }
  }
  result.edges_traversed = reached_degree / 2;
  result.gteps = safe_gteps(result.edges_traversed, result.total_ms);

  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    obs::Span sp;
    sp.name = "xbfs.run";
    sp.category = "run";
    sp.track = "bfs";
    sp.pid = dev_.trace_pid();
    sp.sim_start_us = t0_us;
    sp.sim_dur_us = dev_.now_us() - t0_us;
    sp.attr("source", static_cast<std::int64_t>(src));
    sp.attr("depth", static_cast<std::uint64_t>(result.depth));
    sp.attr("gteps", result.gteps);
    sp.attr("edges_traversed", result.edges_traversed);
    tr.complete(std::move(sp));
  }
  if (cfg_.report_runs) {
    record_run(result, "xbfs", g_.n, g_.m, static_cast<std::int64_t>(src),
               &cfg_, &dev_.profiler(), prof_start);
  }
  return result;
}

}  // namespace xbfs::core
