#include "core/xbfs.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/kernels_bottomup.h"
#include "core/kernels_topdown.h"
#include "core/report.h"
#include "core/status.h"
#include "hipsim/grid.h"
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

/// What the level loop carries from one level to the next.  In the
/// cooperative launch every block holds this copy, updated only from
/// uniform values (and the kernel arguments that seed it).
struct LoopState {
  std::uint64_t cur_count = 1;  ///< frontier vertices (carry included)
  std::uint64_t cur_edges = 0;  ///< their degree sum
  std::uint64_t claimed = 1;    ///< vertices with a status, for k5's grid
  /// Look-ahead (level+2) vertices of the last pass, merged into the next
  /// frontier.
  std::uint64_t carry_count = 0;
  std::uint64_t carry_edges = 0;
  bool use_a_queue = true;
  bool use_a_pending = true;
  LevelDecision decision;
};

/// What one level's counter set means for the loop: the level's own
/// frontier size, the next frontier, and the next decision unless the
/// traversal is done.
struct LevelStep {
  std::uint64_t frontier_count = 0;
  std::uint64_t next_raw = 0;  ///< this pass's next frontier, carry excluded
  std::uint64_t next_count = 0;
  std::uint64_t next_edges = 0;
  std::uint64_t pending_count = 0;
  std::uint64_t pending_edges = 0;
  bool done = false;
  LevelDecision next;

  bool operator==(const LevelStep&) const = default;
};

LevelStep next_step(const AdaptivePolicy& policy, std::uint64_t total_edges,
                    const LoopState& ls, const LevelCounters& lc,
                    std::uint32_t level) {
  const LevelDecision& d = ls.decision;
  const bool built_queue = d.strategy != Strategy::SingleScan;
  // A generation scan sizes the frontier it expands on the device.
  const bool generated =
      d.strategy == Strategy::SingleScan && !d.skip_generation;
  LevelStep st;
  st.frontier_count = generated ? lc.cur_count : ls.cur_count;
  st.next_raw = built_queue ? lc.next_count : lc.new_count;
  st.next_count = st.next_raw + ls.carry_count;
  st.next_edges = lc.next_edges + ls.carry_edges;
  st.pending_count = lc.pending_count;
  st.pending_edges = lc.pending_edges;
  st.done = st.next_count == 0 && lc.pending_count == 0;
  if (st.done) return st;

  LevelInputs in;
  in.level = level + 1;
  in.frontier_count = st.next_count;
  in.frontier_edges = st.next_edges;
  in.prev_frontier_count = ls.cur_count;
  in.total_edges = total_edges;
  in.queue_available = built_queue;
  in.has_prev = true;
  in.prev_strategy = d.strategy;
  st.next = policy.decide(in);
  return st;
}

LoopState advance(LoopState ls, const LevelStep& st) {
  ls.claimed += st.next_raw + st.pending_count;
  ls.carry_count = st.pending_count;
  ls.carry_edges = st.pending_edges;
  ls.use_a_pending = !ls.use_a_pending;
  if (ls.decision.strategy != Strategy::SingleScan) {
    ls.use_a_queue = !ls.use_a_queue;
  }
  ls.cur_count = st.next_count;
  ls.cur_edges = st.next_edges;
  ls.decision = st.next;
  return ls;
}

/// The traversal facts of one level (the profile fields stay zero).
LevelStats level_facts(std::uint32_t level, const LoopState& ls,
                       const LevelStep& st) {
  LevelStats f;
  f.level = level;
  f.strategy = ls.decision.strategy;
  f.skipped_generation = ls.decision.strategy == Strategy::SingleScan &&
                         ls.decision.skip_generation;
  f.frontier_count = st.frontier_count;
  f.frontier_edges = ls.cur_edges;
  f.ratio = ls.decision.ratio;
  return f;
}

// Device level log: word 0 counts the levels run; level k's row is two
// words (frontier count | strategy << 32 | nfg << 34, then frontier edges).
// The ratio is re-derived from the edges on the host.  Word 0 and the rows
// of levels below kHeadLevels live in the head, from word 1; later rows in
// the tail, from word 0.
constexpr std::size_t kLevelRowWords = 2;
/// Levels whose rows ride in the one copy every traversal pays.
constexpr std::uint32_t kHeadLevels = 64;
constexpr std::size_t kHeadWords = 1 + kLevelRowWords * kHeadLevels;
/// Deepest traversal whose levels fit the one-byte readback (levels
/// 0..253, with kUnvisited8 = 0xFF left for unreached vertices).
constexpr std::uint32_t kNarrowMaxDepth = 254;

/// Where level `level`'s row starts: the log buffer and the word in it.
template <typename Buf>
std::pair<Buf*, std::size_t> level_row(Buf& head, Buf& tail,
                                       std::uint32_t level) {
  if (level < kHeadLevels) return {&head, 1 + kLevelRowWords * level};
  return {&tail, kLevelRowWords * (level - kHeadLevels)};
}

/// Non-temporal stores: the log is write-once device data for the host and
/// must not displace the strategy kernels' lines from L2.
void store_level_row(sim::ExecCtx& ctx, sim::dspan<std::uint64_t> head,
                     sim::dspan<std::uint64_t> tail, const LevelStats& f) {
  const auto [log, row] = level_row(head, tail, f.level);
  ctx.store_nontemporal(head, 0, std::uint64_t{f.level} + 1);
  ctx.store_nontemporal(
      *log, row,
      f.frontier_count | static_cast<std::uint64_t>(f.strategy) << 32 |
          static_cast<std::uint64_t>(f.skipped_generation) << 34);
  ctx.store_nontemporal(*log, row + 1, f.frontier_edges);
}

LevelStats load_level_row(const sim::DeviceBuffer<std::uint64_t>& head,
                          const sim::DeviceBuffer<std::uint64_t>& tail,
                          std::uint32_t level, std::uint64_t total_edges) {
  const auto [log, row] = level_row(head, tail, level);
  const std::uint64_t w = log->h_read(row);
  LevelStats f;
  f.level = level;
  f.frontier_count = w & 0xFFFFFFFFu;
  f.strategy = static_cast<Strategy>((w >> 32) & 3);
  f.skipped_generation = ((w >> 34) & 1) != 0;
  f.frontier_edges = log->h_read(row + 1);
  f.ratio = frontier_ratio(f.frontier_edges, total_edges);
  return f;
}

/// The simulator's own per-level profile (modelled span, counters and
/// kernels of the level's strategy), gathered the way rocprof reads
/// counters, beside the traversal facts the device reports.
struct LevelProfile {
  double t0_us = 0.0;
  double t1_us = 0.0;
  sim::KernelCounters accum;
  unsigned kernels = 0;
};

/// Level loop executor of StreamMode::TripleBinned, the CUDA design: every
/// level ends in a host round trip — wait, read the counter set back, and
/// decide on the host.
struct HostLevels {
  sim::Device& dev;
  const AdaptivePolicy& policy;
  std::uint64_t total_edges;
  LoopState start;
  std::vector<LevelProfile> profiles;
  std::vector<LevelStats> facts;

  sim::LaunchTarget on() { return dev.stream(0); }
  double now_us() const { return dev.now_us(); }
  LevelStep end_level(std::uint32_t level, const CounterSet& set,
                      const LoopState& ls) {
    sim::Stream& s = dev.stream(0);
    s.synchronize();
    const LevelStep st =
        next_step(policy, total_edges, ls, read_counters(dev, s, set), level);
    facts.push_back(level_facts(level, ls, st));
    return st;
  }
};

/// Level loop executor of StreamMode::Single: the loop runs inside one
/// cooperative launch.  After the barrier that ends a level, every block
/// loads the level's counter set and runs the unchanged policy; the
/// simulator checks they agree (GridCtx::uniform), and block 0 appends the
/// level's row to the device log.  Each block then branches straight into
/// whatever follows (the next level's first kernel, the pending append, a
/// bitmap clear or the pack) with no barrier between; nothing there writes
/// what the decision read (frontier.h).
struct GridLevels {
  sim::GridCtx& grid;
  const AdaptivePolicy& policy;
  std::uint64_t total_edges;
  sim::dspan<std::uint64_t> log_head;
  sim::dspan<std::uint64_t> log_tail;
  LoopState start;
  std::vector<LevelProfile> profiles;

  sim::LaunchTarget on() { return grid; }
  double now_us() const { return grid.now_us(); }
  LevelStep end_level(std::uint32_t level, CounterSet& set,
                      const LoopState& ls) {
    const CounterSpans counters = set.spans();
    return grid.uniform("xbfs_level_step", [&](sim::BlockCtx& blk) {
      sim::ExecCtx& ctx = blk.ctx();
      const LevelStep st = next_step(policy, total_edges, ls,
                                     load_counters(ctx, counters), level);
      if (blk.block_id() == 0) {
        store_level_row(ctx, log_head, log_tail, level_facts(level, ls, st));
      }
      return st;
    });
  }
};

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
  std::uint32_t unclaimed = 0;  ///< estimate of bottom-up candidates
  double t0_us = 0.0;           ///< modelled clock at the level's start
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
  if (cfg_.stream_mode == StreamMode::Single) {
    // Depth is at most |V|: one level per vertex on a path.
    log_head_ = dev_.alloc<std::uint64_t>(kHeadWords, "bfs.level_log");
    if (g_.n > kHeadLevels) {
      log_tail_ = dev_.alloc<std::uint64_t>(
          kLevelRowWords * (g_.n - kHeadLevels), "bfs.level_log_tail");
    }
    levels8_ = dev_.alloc<std::uint8_t>(g_.n, "bfs.levels8");
  }
  if (cfg_.stream_mode == StreamMode::TripleBinned) {
    bin_streams_[0] = &dev_.create_stream("bin-small");
    bin_streams_[1] = &dev_.create_stream("bin-medium");
    bin_streams_[2] = &dev_.create_stream("bin-large");
  }
}

void Xbfs::run_scanfree(sim::LaunchTarget on, const FrontierState& fs,
                        std::uint32_t level) {
  TopDownArgs a;
  a.adj = g_.adjacency();
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
    fs.add(launch_scanfree_expand(dev_, on, a, cfg_));
    return;
  }
  sim::Stream& s = *on.stream();

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

void Xbfs::run_singlescan(sim::LaunchTarget on, const FrontierState& fs,
                          std::uint32_t level, bool skip_generation) {
  TopDownArgs a;
  a.adj = g_.adjacency();
  a.status = buffers_.status.span();
  if (!buffers_.parent.empty()) a.parent = buffers_.parent.span();
  a.queue = fs.cur_queue;
  // The generated size stays on the device; the loop's count of the level
  // bounds it and sizes the grid.
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
    fs.add(launch_singlescan_generate(dev_, on, buffers_.status.span(),
                                      fs.cur_queue_mut, a.counters, level,
                                      cfg_, fs.next_counters));
  }
  fs.add(launch_singlescan_expand(dev_, on, a, cfg_));
}

void Xbfs::run_bottomup(sim::LaunchTarget on, const FrontierState& fs,
                        std::uint32_t level) {
  BottomUpArgs a;
  a.adj = g_.adjacency();
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

  fs.add(launch_bu_count(dev_, on, a, cfg_));
  fs.add(launch_bu_scan_block(dev_, on, a, cfg_));
  fs.add(launch_bu_scan_final(dev_, on, a, cfg_));
  fs.add(launch_bu_queue_gen(dev_, on, a, cfg_));
  // k5 reads the candidate total k3 left on the device; the loop's count
  // of unclaimed vertices estimates it and sizes the grid.
  fs.add(launch_bu_expand(dev_, on, a, fs.unclaimed, cfg_));
}

template <typename Exec>
std::uint32_t Xbfs::level_loop(Exec& ex) {
  const bool bitmaps_on = cfg_.bottomup_bitmap;
  LoopState ls = ex.start;
  for (std::uint32_t level = 0;; ++level) {
    dev_.profiler().set_context(static_cast<int>(level),
                                strategy_name(ls.decision.strategy));
    FrontierState fs;
    fs.t0_us = ex.now_us();
    auto& curq = ls.use_a_queue ? buffers_.queue_a : buffers_.queue_b;
    auto& nextq = ls.use_a_queue ? buffers_.queue_b : buffers_.queue_a;
    auto& pendq = ls.use_a_pending ? buffers_.pending_a : buffers_.pending_b;
    auto& carried_pendq =
        ls.use_a_pending ? buffers_.pending_b : buffers_.pending_a;
    fs.cur_queue = curq.cspan();
    fs.cur_queue_mut = curq.span();
    fs.next_queue = nextq.span();
    fs.pending_queue = pendq.span();
    fs.counters = &buffers_.counter_sets[level % 3];
    fs.next_counters = buffers_.counter_sets[(level + 1) % 3].spans();
    fs.cur_count = static_cast<std::uint32_t>(ls.cur_count);
    fs.unclaimed = static_cast<std::uint32_t>(
        ls.claimed < g_.n ? g_.n - ls.claimed : 0);
    if (bitmaps_on) {
      // Rotate the three frontier bitmaps; the incoming next-next map still
      // holds level-(k-1) bits and must be wiped before look-ahead claims
      // land in it.
      fs.bitmap_cur = buffers_.bitmaps[level % 3].cspan();
      fs.bitmap_next = buffers_.bitmaps[(level + 1) % 3].span();
      fs.bitmap_nextnext = buffers_.bitmaps[(level + 2) % 3].span();
      if (level > 0) {
        launch_clear_bitmap(dev_, ex.on(), fs.bitmap_nextnext,
                            cfg_.block_threads);
      }
    }

    switch (ls.decision.strategy) {
      case Strategy::ScanFree:
        run_scanfree(ex.on(), fs, level);
        break;
      case Strategy::SingleScan:
        run_singlescan(ex.on(), fs, level, ls.decision.skip_generation);
        break;
      case Strategy::BottomUp:
        run_bottomup(ex.on(), fs, level);
        break;
    }
    const LevelStep st = ex.end_level(level, *fs.counters, ls);
    ex.profiles.push_back({fs.t0_us, ex.now_us(), fs.accum, fs.kernels});
    if (st.done) return level + 1;

    // Merge the carried look-ahead vertices (level+1) into the next queue
    // when the next pass consumes that queue as its frontier.
    const bool consumes_queue =
        ls.decision.strategy != Strategy::SingleScan &&
        (st.next.strategy == Strategy::ScanFree ||
         (st.next.strategy == Strategy::SingleScan &&
          st.next.skip_generation));
    if (consumes_queue && ls.carry_count > 0) {
      launch_append_queue(dev_, ex.on(), carried_pendq.cspan(),
                          static_cast<std::uint32_t>(ls.carry_count),
                          fs.next_queue,
                          static_cast<std::uint32_t>(st.next_raw),
                          cfg_.block_threads);
    }
    ls = advance(ls, st);
  }
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
  const std::uint64_t n = g_.n;
  BfsResult result;

  // The loop's starting state is kernel arguments: the level-0 frontier is
  // the source, whose degree the host already holds.
  const eid_t* offsets_host = g_.offsets.host_data();
  LoopState start;
  start.cur_edges = offsets_host[src + 1] - offsets_host[src];
  LevelInputs in0;
  in0.level = 0;
  in0.frontier_count = start.cur_count;
  in0.frontier_edges = start.cur_edges;
  in0.prev_frontier_count = 0;
  in0.total_edges = g_.m;
  in0.queue_available = true;
  in0.has_prev = false;
  start.decision = policy_.decide(in0);

  std::vector<LevelStats> facts;
  std::vector<LevelProfile> profiles;
  bool narrow = false;  // levels come from levels8_, not status
  if (cfg_.stream_mode == StreamMode::TripleBinned) {
    dev_.profiler().set_context(-1, "setup");
    launch_init(dev_, s, buffers_, src, cfg_.block_threads);
    HostLevels ex{dev_, policy_, g_.m, start, {}, {}};
    level_loop(ex);
    facts = std::move(ex.facts);
    profiles = std::move(ex.profiles);
    // Read the status (and parent) arrays back to the host; the typed
    // copies charge the n-word transfers and mark the buffers host-synced.
    dev_.memcpy_d2h(s, buffers_.status);
    if (!buffers_.parent.empty()) dev_.memcpy_d2h(s, buffers_.parent);
  } else {
    sim::LaunchConfig lc;
    lc.grid_blocks =
        std::max(max_grid_blocks(dev_.profile()), cfg_.grid_blocks);
    lc.block_threads = cfg_.block_threads;
    dev_.launch_grid(s, "xbfs_level_loop", lc, [&](sim::GridCtx& grid) {
      dev_.profiler().set_context(-1, "setup");
      launch_init(dev_, grid, buffers_, src, cfg_.block_threads);
      GridLevels ex{grid, policy_, g_.m, log_head_.span(), log_tail_.span(),
                    start, {}};
      // The depth is loop state, so every block agrees on the pack.
      if (level_loop(ex) <= kNarrowMaxDepth) {
        dev_.profiler().set_context(-1, "readback");
        launch_pack_levels(dev_, grid, buffers_.status.cspan(),
                           levels8_.span(), cfg_.block_threads);
      }
      profiles = std::move(ex.profiles);
    });
    // One copy sized without the depth: the log head, the packed levels
    // and the parents.  A traversal deeper than the head pays a second
    // copy for the rest of its rows, plus the status when it is too deep
    // for the packed levels.
    dev_.memcpy_d2h(s, kHeadWords * sizeof(std::uint64_t) + n +
                           buffers_.parent.size() * sizeof(vid_t));
    log_head_.mark_host_synced();
    levels8_.mark_host_synced();
    buffers_.parent.mark_host_synced();
    const std::uint64_t depth = log_head_.h_read(0);
    narrow = depth <= kNarrowMaxDepth;
    if (depth > kHeadLevels) {
      dev_.memcpy_d2h(s, (depth - kHeadLevels) * kLevelRowWords *
                                 sizeof(std::uint64_t) +
                             (narrow ? 0 : n * sizeof(std::uint32_t)));
      log_tail_.mark_host_synced();
      if (!narrow) buffers_.status.mark_host_synced();
    }
    for (std::uint32_t l = 0; l < depth; ++l) {
      facts.push_back(load_level_row(log_head_, log_tail_, l, g_.m));
    }
  }
  s.synchronize();

  for (std::size_t l = 0; l < facts.size(); ++l) {
    LevelStats st = facts[l];
    const LevelProfile& p = profiles[l];
    st.fetch_kb = p.accum.fetch_kb();
    st.kernels = p.kernels;
    st.time_ms = (p.t1_us - p.t0_us) / 1000.0;
    emit_level_telemetry(dev_, st, p.t0_us, p.t1_us);
    result.level_stats.push_back(st);
  }

  result.levels.resize(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (narrow) {
      const std::uint8_t l8 = levels8_.h_read(v);
      result.levels[v] = l8 == kUnvisited8 ? std::int32_t{-1}
                                           : std::int32_t{l8};
    } else {
      const std::uint32_t st = buffers_.status.h_read(v);
      result.levels[v] = st == kUnvisited ? std::int32_t{-1}
                                          : static_cast<std::int32_t>(st);
    }
  }
  if (!buffers_.parent.empty()) {
    const graph::vid_t* parent_host = std::as_const(buffers_.parent).host_data();
    result.parent.assign(parent_host, parent_host + n);
  }

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
