#include "shard/shard_bfs.h"

#include <algorithm>

#include "core/status.h"  // kUnvisited, auto_grid_blocks
#include "core/xbfs.h"    // safe_gteps
#include "hipsim/fault.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "shard/frontier_codec.h"

namespace xbfs::shard {

using core::kUnvisited;
using graph::eid_t;
using graph::vid_t;
using Replica = ShardedStore::Replica;

namespace {

/// Frontier-bitmap words [begin, end) covering a shard's owned vertex
/// range; the edge words may straddle a neighbour's range.
struct WordRange {
  std::uint64_t begin, end;
  std::uint64_t size() const { return end - begin; }
};

WordRange owned_words(const dist::LocalRows& rows) {
  return {rows.first_vertex / 64,
          (static_cast<std::uint64_t>(rows.first_vertex) + rows.num_rows +
           63) / 64};
}

/// Grid-stride launch shape covering `items` (at least one block).
sim::LaunchConfig grid_for(const sim::Device& dev, std::uint64_t items,
                           unsigned block_threads) {
  sim::LaunchConfig lc;
  lc.block_threads = block_threads;
  lc.grid_blocks = core::auto_grid_blocks(
      dev.profile(), std::max<std::uint64_t>(items, 1), block_threads);
  return lc;
}

/// Runs `f(replica)` on every live replica of the plan in shard order and
/// returns the slowest one's modelled time.  An injected device fault is
/// rethrown as ShardSweepFault naming the (shard, replica) slot.
template <class F>
double for_each_live(ShardedStore& store, const std::vector<int>& plan,
                     F&& f) {
  double slowest = 0;
  for (unsigned s = 0; s < store.shards(); ++s) {
    if (plan[s] == ShardSweep::kLost) continue;
    const auto r = static_cast<unsigned>(plan[s]);
    Replica& g = store.replica(s, r);
    const double t0 = g.device->now_us();
    try {
      f(g);
    } catch (const sim::FaultInjected& e) {
      throw ShardSweepFault(s, r, e.what());
    }
    slowest = std::max(slowest, g.device->now_us() - t0);
  }
  return slowest;
}

/// Status slice all unvisited except the source; frontier = {src}; the
/// claimed-degree sum zeroed for level 0.
void launch_init(Replica& g, vid_t src, unsigned block_threads) {
  sim::Device& dev = *g.device;
  auto status = g.status.span();
  auto cur = g.cur_bm.span();
  auto next = g.next_bm.span();
  auto degree = g.claimed_degree.span();
  const vid_t rows = g.rows->num_rows;
  const vid_t first = g.rows->first_vertex;
  const bool is_owner = src >= first && src - first < rows;
  dev.launch("shard_init", grid_for(dev, rows, block_threads),
             [=](sim::BlockCtx& blk) {
               auto& ctx = blk.ctx();
               blk.grid_stride(rows, [&](std::uint64_t r) {
                 ctx.store(status, r,
                           is_owner && first + r == src ? 0u : kUnvisited);
               });
               blk.grid_stride(cur.size(), [&](std::uint64_t w) {
                 std::uint64_t word = 0;
                 if (src / 64 == w) word = std::uint64_t{1} << (src % 64);
                 ctx.store(cur, w, word);
                 ctx.store(next, w, std::uint64_t{0});
                 if (w == 0) ctx.store(degree, 0, std::uint64_t{0});
               });
             });
}

/// Owned frontier vertices expand straight from the frontier bitmap,
/// setting candidate bits in next_bm.  Scanning the owned words in the
/// expand kernel itself needs no frontier queue, so no launch or host
/// readback sizes one.
void run_topdown(Replica& g, unsigned block_threads) {
  sim::Device& dev = *g.device;
  sim::Stream& s = dev.stream(0);
  auto cur = g.cur_bm.cspan();
  auto next = g.next_bm.span();
  auto offsets = g.offsets.cspan();
  auto cols = g.cols.cspan();
  const vid_t first = g.rows->first_vertex;
  const vid_t rows = g.rows->num_rows;
  const WordRange wr = owned_words(*g.rows);
  dev.launch(s, "shard_topdown_expand", grid_for(dev, wr.size(), block_threads),
             [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(wr.size(), [&](std::uint64_t wi) {
      const std::uint64_t word = ctx.load(cur, wr.begin + wi);
      if (word == 0) return;
      std::uint64_t work = 0;
      for (unsigned b = 0; b < 64; ++b) {
        if (!(word & (std::uint64_t{1} << b))) continue;
        const std::uint64_t v = (wr.begin + wi) * 64 + b;
        if (v < first || v >= static_cast<std::uint64_t>(first) + rows) {
          continue;  // edge words straddle the shard boundary
        }
        const vid_t r = static_cast<vid_t>(v - first);
        const eid_t e0 = ctx.load(offsets, r);
        const eid_t e1 = ctx.load(offsets, r + 1);
        for (eid_t j = e0; j < e1; ++j) {
          const vid_t w = ctx.load(cols, j);
          // Candidate-bit pre-check dedups repeat discoveries locally.
          const std::uint64_t cand = ctx.atomic_load(next, w / 64);
          const std::uint64_t bit = std::uint64_t{1} << (w % 64);
          if (!(cand & bit)) ctx.atomic_or(next, w / 64, bit);
        }
        work += 2 * (e1 - e0) + 1;
      }
      ctx.slots(work, work);
    });
  });
  s.synchronize();
}

/// Owners claim the unvisited candidates of their merged slice, clearing
/// every other bit so the slice is ready to broadcast.
void run_claim(Replica& g, std::uint32_t next_level, unsigned block_threads) {
  sim::Device& dev = *g.device;
  sim::Stream& s = dev.stream(0);
  auto degree = g.claimed_degree.span();
  auto next = g.next_bm.span();
  auto status = g.status.span();
  auto offsets = g.offsets.cspan();
  const vid_t first = g.rows->first_vertex;
  const vid_t rows = g.rows->num_rows;
  const WordRange wr = owned_words(*g.rows);
  dev.launch(s, "shard_claim", grid_for(dev, wr.size(), block_threads),
             [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(wr.size(), [&](std::uint64_t wi) {
      const std::uint64_t word =
          ctx.load(sim::dspan<const std::uint64_t>(next), wr.begin + wi);
      if (word == 0) return;
      std::uint64_t cleaned = 0;
      std::uint32_t claimed = 0;
      std::uint64_t degree_sum = 0;
      for (unsigned b = 0; b < 64; ++b) {
        const std::uint64_t bit = std::uint64_t{1} << b;
        if (!(word & bit)) continue;
        const std::uint64_t v = (wr.begin + wi) * 64 + b;
        if (v < first || v >= static_cast<std::uint64_t>(first) + rows) {
          continue;  // not owned: drop (the owner keeps its own copy)
        }
        const vid_t r = static_cast<vid_t>(v - first);
        if (ctx.load(status, r) == kUnvisited) {
          ctx.store(status, r, next_level);
          cleaned |= bit;
          ++claimed;
          degree_sum += ctx.load(offsets, r + 1) - ctx.load(offsets, r);
        }
      }
      if (cleaned != word) ctx.store(next, wr.begin + wi, cleaned);
      if (claimed > 0) ctx.atomic_add(degree, 0, degree_sum);
      ctx.slots(64, claimed + 1);
    });
  });
  s.synchronize();
}

/// Owned unvisited vertices probe the global frontier, claiming themselves
/// on the first hit (already owner-clean: no candidate exchange needed).
void run_bottomup(Replica& g, std::uint32_t next_level,
                  unsigned block_threads) {
  sim::Device& dev = *g.device;
  sim::Stream& s = dev.stream(0);
  auto degree = g.claimed_degree.span();
  auto cur = g.cur_bm.cspan();
  auto next = g.next_bm.span();
  auto status = g.status.span();
  auto offsets = g.offsets.cspan();
  auto cols = g.cols.cspan();
  const vid_t first = g.rows->first_vertex;
  const vid_t rows = g.rows->num_rows;

  dev.launch(s, "shard_bottomup", grid_for(dev, rows, block_threads),
             [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(rows, [&](std::uint64_t r) {
      if (ctx.load(status, r) != kUnvisited) {
        ctx.slots(1, 1);
        return;
      }
      const eid_t b = ctx.load(offsets, r);
      const eid_t e = ctx.load(offsets, r + 1);
      std::uint64_t steps = 0;
      for (eid_t j = b; j < e; ++j) {
        const vid_t w = ctx.load(cols, j);
        ++steps;
        const std::uint64_t word = ctx.atomic_load(cur, w / 64);
        if (word & (std::uint64_t{1} << (w % 64))) {
          const vid_t v = first + static_cast<vid_t>(r);
          ctx.store(status, r, next_level);
          ctx.atomic_or(next, v / 64, std::uint64_t{1} << (v % 64));
          ctx.atomic_add(degree, 0, static_cast<std::uint64_t>(e - b));
          break;
        }
      }
      ctx.slots(2 * steps + 1, 2 * steps + 1);
    });
  });
  s.synchronize();
}

/// Clear the new candidate map and the claimed-degree sum between levels.
void launch_clear(Replica& g, std::size_t words, unsigned block_threads) {
  sim::Device& dev = *g.device;
  auto next = g.next_bm.span();
  auto degree = g.claimed_degree.span();
  dev.launch("shard_clear_bitmap", grid_for(dev, words, block_threads),
             [=](sim::BlockCtx& blk) {
               auto& ctx = blk.ctx();
               blk.grid_stride(next.size(), [&](std::uint64_t w) {
                 ctx.store(next, w, std::uint64_t{0});
                 if (w == 0) ctx.store(degree, 0, std::uint64_t{0});
               });
             });
}

/// Wire and raw bytes the claimed-degree field adds to each cleaned slice.
/// The slice header's set count already is the owner's claim count.
constexpr std::uint64_t kDegreeFieldBytes = sizeof(std::uint64_t);

struct Exchange {  ///< one exchange's encoded-payload accounting
  std::uint64_t raw = 0;
  std::uint64_t wire = 0;
  /// Candidate merge: the most wire bytes any one device sent or received.
  std::uint64_t busiest = 0;
  /// Cleaned broadcast: the claim totals the slice headers carry.
  std::uint64_t claimed = 0;
  std::uint64_t claimed_degree = 0;
};

/// Owner-side OR standing in for the alltoall: every live sender's
/// candidate bits for owner o's word range travel encoded and are OR-
/// decoded into o's copy.  The wire time is charged by the caller from the
/// Exchange totals; host views are declared synced here because the
/// modelled fabric, not a memcpy, carries the bytes.
Exchange merge_candidates(ShardedStore& store, const std::vector<int>& plan) {
  Exchange ex;
  std::vector<std::uint64_t> sent(store.shards(), 0);  // by live rank
  for_each_live(store, plan, [](Replica& g) { g.next_bm.mark_host_synced(); });
  for_each_live(store, plan, [&](Replica& owner) {
    const WordRange wr = owned_words(*owner.rows);
    std::uint64_t received = 0;
    std::size_t rank = 0;
    for_each_live(store, plan, [&](Replica& sender) {
      std::uint64_t& sender_sent = sent[rank++];
      if (&sender == &owner) return;
      const EncodedFrontier enc =
          encode_frontier(sender.next_bm.host_data(), wr.begin, wr.size());
      ex.raw += enc.raw_bytes();
      ex.wire += enc.wire_bytes();
      sender_sent += enc.wire_bytes();
      received += enc.wire_bytes();
      if (enc.set_bits != 0) decode_frontier_or(enc, owner.next_bm.host_data());
    });
    ex.busiest = std::max(ex.busiest, received);
  });
  ex.busiest = std::max(ex.busiest, *std::max_element(sent.begin(), sent.end()));
  return ex;
}

/// Each live owner encodes its cleaned, boundary-masked slice, with its
/// claimed-degree sum beside the header; every live replica decodes the
/// full set into its frontier copy.
Exchange broadcast_cleaned(ShardedStore& store, const std::vector<int>& plan,
                           std::size_t words) {
  Exchange ex;
  for_each_live(store, plan, [](Replica& g) {
    g.next_bm.mark_host_synced();
    g.claimed_degree.mark_host_synced();
  });
  std::vector<std::uint64_t> global(words, 0);
  std::vector<std::uint64_t> slice;
  for_each_live(store, plan, [&](Replica& g) {
    const WordRange wr = owned_words(*g.rows);
    const std::uint64_t first = g.rows->first_vertex;
    const std::uint64_t last = first + g.rows->num_rows;  // exclusive
    slice.assign(wr.size(), 0);
    for (std::uint64_t w = wr.begin; w < wr.end; ++w) {
      std::uint64_t mask = ~std::uint64_t{0};
      if (w * 64 < first) {
        mask &= ~((std::uint64_t{1} << (first - w * 64)) - 1);
      }
      if ((w + 1) * 64 > last) {
        const unsigned keep = static_cast<unsigned>(last - w * 64);
        mask &= keep >= 64 ? ~std::uint64_t{0}
                           : ((std::uint64_t{1} << keep) - 1);
      }
      slice[w - wr.begin] = g.next_bm.host_data()[w] & mask;
    }
    EncodedFrontier enc = encode_frontier(slice.data(), 0, slice.size());
    // Re-anchor the slice at its global word range: payload positions are
    // relative to the slice start in both formats, so only the base moves.
    enc.word_begin = wr.begin;
    ex.raw += enc.raw_bytes() + kDegreeFieldBytes;
    ex.wire += enc.wire_bytes() + kDegreeFieldBytes;
    ex.claimed += enc.set_bits;
    ex.claimed_degree += g.claimed_degree.h_read(0);
    decode_frontier_or(enc, global.data());
  });
  for_each_live(store, plan, [&](Replica& g) {
    std::copy(global.begin(), global.end(), g.next_bm.host_data());
    g.next_bm.mark_device_synced();
  });
  return ex;
}

}  // namespace

ShardSweep::ShardSweep(ShardedStore& store, ShardSweepConfig cfg)
    : store_(store), cfg_(cfg),
      words_((static_cast<std::size_t>(store.graph().num_vertices()) + 63) /
             64) {
  obs::TraceSession::global().set_process_label(0, "dist-coordinator");
}

ShardSweepResult ShardSweep::run(vid_t src, const std::vector<int>& plan) {
  const graph::Csr& host_g = store_.graph();
  const unsigned S = store_.shards();
  if (plan.size() != S) {
    throw std::invalid_argument("ShardSweep: plan size " +
                                std::to_string(plan.size()) + " != shards " +
                                std::to_string(S));
  }
  if (src >= host_g.num_vertices()) {
    throw std::invalid_argument(
        "ShardSweep: source " + std::to_string(src) + " out of range for " +
        std::to_string(host_g.num_vertices()) + " vertices");
  }
  unsigned live = 0;
  for (unsigned s = 0; s < S; ++s) {
    if (plan[s] == kLost) continue;
    if (plan[s] < 0 || static_cast<unsigned>(plan[s]) >= store_.replicas()) {
      throw std::invalid_argument("ShardSweep: bad replica index in plan");
    }
    ++live;
  }
  const unsigned src_owner = store_.layout().owner(src);
  if (plan[src_owner] == kLost) {
    throw std::invalid_argument(
        "ShardSweep: source shard " + std::to_string(src_owner) +
        " is lost — no meaningful result exists");
  }

  ShardSweepResult result;
  result.shards_live = live;
  result.shards_lost = S - live;
  result.partial = result.shards_lost > 0;
  const unsigned block_threads = store_.config().block_threads;
  for_each_live(store_, plan,
                [&](Replica& g) { launch_init(g, src, block_threads); });

  const dist::FabricModel& fabric = store_.config().fabric;
  const unsigned grid_rows = store_.layout().grid_rows();
  const unsigned grid_cols = store_.layout().grid_cols();
  const bool promotable = live >= 4 && grid_cols > 1;

  // Level-0 frontier metadata from the owner's local rows.
  const dist::LocalRows& owner_rows =
      *store_.replica(src_owner, static_cast<unsigned>(plan[src_owner])).rows;
  const vid_t r0 = src - owner_rows.first_vertex;
  std::uint64_t frontier_count = 1;
  std::uint64_t frontier_edges =
      owner_rows.offsets[r0 + 1] - owner_rows.offsets[r0];
  const std::uint64_t m = host_g.num_edges();

  obs::TraceSession& tr = obs::TraceSession::global();
  const bool tracing = tr.enabled();

  double clock_us = 0, comm_total_us = 0;
  for (std::uint32_t level = 0;; ++level) {
    const double ratio =
        static_cast<double>(frontier_edges) / static_cast<double>(m ? m : 1);
    const bool bottom_up = ratio > cfg_.alpha;
    const double level_t0 = clock_us;

    ShardLevelStats st;
    st.level = level;
    st.bottom_up = bottom_up;
    st.frontier_count = frontier_count;
    st.frontier_edges = frontier_edges;
    st.ratio = ratio;

    // Phase spans land on the coordinator lane (pid 0) along the modelled
    // global clock; per-replica kernel attribution comes from each device's
    // own lane.
    double phase_cursor = clock_us;
    auto phase = [&](const char* name, const char* category, double dur_us) {
      if (tracing && dur_us > 0.0) {
        obs::Span sp;
        sp.name = name;
        sp.category = category;
        sp.track = "dist-phases";
        sp.pid = 0;
        sp.sim_start_us = phase_cursor;
        sp.sim_dur_us = dur_us;
        sp.attr("level", static_cast<std::uint64_t>(level));
        sp.attr("shards", static_cast<std::uint64_t>(live));
        tr.complete(std::move(sp));
      }
      phase_cursor += dur_us;
    };

    const std::uint32_t next_level = level + 1;
    double local_us = 0, comm_us = 0;
    Exchange bx;
    if (bottom_up) {
      local_us = for_each_live(store_, plan, [&](Replica& g) {
        run_bottomup(g, next_level, block_threads);
      });
      bx = broadcast_cleaned(store_, plan, words_);
      st.raw_bytes = bx.raw;
      st.wire_bytes = bx.wire;
      comm_us = fabric.allgather_us(live, bx.wire);
      phase("expand:bottomup", "phase", local_us);
      phase("exchange:frontier-allgather", "comm", comm_us);
    } else {
      const double expand_us = for_each_live(
          store_, plan, [&](Replica& g) { run_topdown(g, block_threads); });
      const Exchange cx = merge_candidates(store_, plan);
      const double claim_us = for_each_live(store_, plan, [&](Replica& g) {
        run_claim(g, next_level, block_threads);
      });
      bx = broadcast_cleaned(store_, plan, words_);
      st.raw_bytes = cx.raw + bx.raw;
      st.wire_bytes = cx.wire + bx.wire;
      // Flat: both collectives span every live shard.  Each owner needs only
      // its own candidate slices, so the merge is a personalized all-to-all
      // bounded by the busiest device — or an allgather of every slice,
      // when that is cheaper.  Two-phase (the 2D promotion): candidates
      // move within grid-column groups, the cleaned frontier broadcasts
      // along grid rows — each collective runs over a factor-of-p-sized
      // group instead of all p.
      double cand_us = std::min(fabric.alltoall_us(live, cx.busiest),
                                fabric.allgather_us(live, cx.wire));
      double clean_us = fabric.allgather_us(live, bx.wire);
      if (promotable) {
        const double two_cand = fabric.allgather_us(grid_rows, cx.wire);
        const double two_clean = fabric.allgather_us(grid_cols, bx.wire);
        st.two_phase = two_cand + two_clean < cand_us + clean_us;
        if (st.two_phase) {
          cand_us = two_cand;
          clean_us = two_clean;
        }
      }
      local_us = expand_us + claim_us;
      comm_us = cand_us + clean_us;
      phase("expand:topdown", "phase", expand_us);
      phase("exchange:candidate-merge", "comm", cand_us);
      phase("expand:claim", "phase", claim_us);
      phase("exchange:cleaned-allgather", "comm", clean_us);
    }

    st.local_ms = local_us / 1000.0;
    st.comm_ms = comm_us / 1000.0;
    result.level_stats.push_back(st);
    result.raw_bytes += st.raw_bytes;
    result.wire_bytes += st.wire_bytes;
    clock_us += local_us + comm_us;
    comm_total_us += comm_us;

    if (tracing) {
      obs::Span sp;
      sp.name = "level " + std::to_string(level);
      sp.category = "level";
      sp.track = "dist-levels";
      sp.pid = 0;
      sp.sim_start_us = level_t0;
      sp.sim_dur_us = clock_us - level_t0;
      sp.attr("direction", bottom_up ? "bottom-up" : "top-down");
      sp.attr("frontier", st.frontier_count);
      sp.attr("edges", st.frontier_edges);
      sp.attr("ratio", st.ratio);
      sp.attr("local_ms", st.local_ms);
      sp.attr("comm_ms", st.comm_ms);
      tr.complete(std::move(sp));
      std::vector<obs::SpanAttr> attrs;
      attrs.push_back({"ratio", obs::json_number(st.ratio), true});
      tr.instant(bottom_up ? "decide:bottom-up" : "decide:top-down",
                 "strategy", "dist-policy", 0, level_t0, std::move(attrs));
    }

    // The claim totals arrived in the cleaned broadcast's slice headers.
    if (bx.claimed == 0) break;
    frontier_count = bx.claimed;
    frontier_edges = bx.claimed_degree;

    // Swap bitmaps and clear the new candidate map on every live replica.
    clock_us += for_each_live(store_, plan, [&](Replica& g) {
      std::swap(g.cur_bm, g.next_bm);
      launch_clear(g, words_, block_threads);
    });
  }

  // Gather global levels from the live owned status slices; lost shards'
  // ranges stay -1 (the partial contract).
  result.levels.assign(host_g.num_vertices(), -1);
  std::uint64_t reached_degree = 0;
  for_each_live(store_, plan, [&](Replica& g) {
    g.device->memcpy_d2h(g.rows->num_rows * sizeof(std::uint32_t));
    g.status.mark_host_synced();
    for (vid_t r = 0; r < g.rows->num_rows; ++r) {
      const std::uint32_t stv = g.status.h_read(r);
      if (stv != kUnvisited) {
        result.levels[g.rows->first_vertex + r] =
            static_cast<std::int32_t>(stv);
        reached_degree += g.rows->offsets[r + 1] - g.rows->offsets[r];
      }
    }
  });

  result.depth = static_cast<std::uint32_t>(result.level_stats.size());
  result.total_ms = clock_us / 1000.0;
  result.comm_ms = comm_total_us / 1000.0;
  result.edges_traversed = reached_degree / 2;
  result.gteps = core::safe_gteps(result.edges_traversed, result.total_ms);

  if (tracing) {
    obs::Span sp;
    sp.name = "shard_sweep.run";
    sp.category = "run";
    sp.track = "dist-levels";
    sp.pid = 0;
    sp.sim_start_us = 0.0;
    sp.sim_dur_us = clock_us;
    sp.attr("source", static_cast<std::int64_t>(src));
    sp.attr("shards", static_cast<std::uint64_t>(live));
    sp.attr("depth", static_cast<std::uint64_t>(result.depth));
    sp.attr("gteps", result.gteps);
    sp.attr("comm_ms", result.comm_ms);
    tr.complete(std::move(sp));
  }
  return result;
}

obs::RunRecord ShardSweep::run_record(vid_t src,
                                      const ShardSweepResult& r) const {
  obs::RunRecord rec;
  rec.tool = "shard_sweep";
  rec.n = store_.graph().num_vertices();
  rec.m = store_.graph().num_edges();
  rec.source = static_cast<std::int64_t>(src);
  rec.depth = r.depth;
  rec.total_ms = r.total_ms;
  rec.gteps = r.gteps;
  rec.edges_traversed = r.edges_traversed;
  rec.config.emplace_back("shards", std::to_string(store_.shards()));
  rec.config.emplace_back("alpha", std::to_string(cfg_.alpha));
  rec.config.emplace_back("comm_ms", std::to_string(r.comm_ms));
  rec.config.emplace_back("local_ms", std::to_string(r.total_ms - r.comm_ms));
  for (const ShardLevelStats& st : r.level_stats) {
    obs::ReportLevelRow row;
    row.level = st.level;
    row.strategy = st.bottom_up ? "bottom-up" : "top-down";
    row.frontier = st.frontier_count;
    row.edges = st.frontier_edges;
    row.ratio = st.ratio;
    row.time_ms = st.local_ms + st.comm_ms;
    row.has_comm = true;
    row.local_ms = st.local_ms;
    row.comm_ms = st.comm_ms;
    rec.levels.push_back(std::move(row));
  }
  return rec;
}

}  // namespace xbfs::shard
