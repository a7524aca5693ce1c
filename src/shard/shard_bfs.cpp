#include "shard/shard_bfs.h"

#include <algorithm>

#include "core/status.h"  // kUnvisited, full_width_launch
#include "core/xbfs.h"    // safe_gteps
#include "hipsim/grid.h"
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

/// The first of level `level`'s two claims words (claimed degree, then
/// claimed count).  Levels alternate between two pairs: the clear right
/// behind level k's decision zeroes level k+1's degree word while other
/// blocks may still be reading level k's pair for that decision.
std::size_t claims_word(std::uint32_t level) { return 2 * (level & 1); }

/// Status slice all unvisited except the source; frontier = {src}; the
/// claimed-degree sum zeroed for level 0.
void launch_init(sim::LaunchTarget on, Replica& g, vid_t src) {
  sim::Device& dev = *g.device;
  auto status = g.status.span();
  auto cur = g.cur_bm.span();
  auto next = g.next_bm.span();
  auto claims = g.claims.span();
  const vid_t rows = g.rows->num_rows;
  const vid_t first = g.rows->first_vertex;
  const bool is_owner = src >= first && src - first < rows;
  dev.launch(on, "shard_init", core::full_width_launch(dev.profile(), rows),
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
                 if (w == 0) ctx.store(claims, 0, std::uint64_t{0});
               });
             });
}

/// Owned frontier vertices expand straight from the frontier bitmap,
/// setting candidate bits in next_bm.  Scanning the owned words in the
/// expand kernel itself needs no frontier queue, so no launch or host
/// readback sizes one.
void run_topdown(sim::LaunchTarget on, Replica& g) {
  sim::Device& dev = *g.device;
  auto cur = g.cur_bm.cspan();
  auto next = g.next_bm.span();
  auto offsets = g.offsets.cspan();
  auto cols = g.cols.cspan();
  const vid_t first = g.rows->first_vertex;
  const vid_t rows = g.rows->num_rows;
  const WordRange wr = owned_words(*g.rows);
  dev.launch(on, "shard_topdown_expand",
             core::full_width_launch(dev.profile(), wr.size()),
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
}

/// Owners claim the unvisited candidates of their merged slice, clearing
/// every other bit so the slice is ready to broadcast.
void run_claim(sim::LaunchTarget on, Replica& g, std::uint32_t next_level) {
  sim::Device& dev = *g.device;
  auto claims = g.claims.span();
  const std::size_t slot = claims_word(next_level - 1);
  auto next = g.next_bm.span();
  auto status = g.status.span();
  auto offsets = g.offsets.cspan();
  const vid_t first = g.rows->first_vertex;
  const vid_t rows = g.rows->num_rows;
  const WordRange wr = owned_words(*g.rows);
  dev.launch(on, "shard_claim",
             core::full_width_launch(dev.profile(), wr.size()),
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
      if (claimed > 0) ctx.atomic_add(claims, slot, degree_sum);
      ctx.slots(64, claimed + 1);
    });
  });
}

/// Owned unvisited vertices probe the global frontier, claiming themselves
/// on the first hit (already owner-clean: no candidate exchange needed).
void run_bottomup(sim::LaunchTarget on, Replica& g, std::uint32_t next_level) {
  sim::Device& dev = *g.device;
  auto claims = g.claims.span();
  const std::size_t slot = claims_word(next_level - 1);
  auto cur = g.cur_bm.cspan();
  auto next = g.next_bm.span();
  auto status = g.status.span();
  auto offsets = g.offsets.cspan();
  auto cols = g.cols.cspan();
  const vid_t first = g.rows->first_vertex;
  const vid_t rows = g.rows->num_rows;

  dev.launch(on, "shard_bottomup",
             core::full_width_launch(dev.profile(), rows),
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
          ctx.atomic_add(claims, slot, static_cast<std::uint64_t>(e - b));
          break;
        }
      }
      ctx.slots(2 * steps + 1, 2 * steps + 1);
    });
  });
}

/// Clear the new candidate map and level `next_level`'s claimed-degree sum
/// between levels.
void launch_clear(sim::LaunchTarget on, Replica& g, std::size_t words,
                  std::uint32_t next_level) {
  sim::Device& dev = *g.device;
  auto next = g.next_bm.span();
  auto claims = g.claims.span();
  const std::size_t slot = claims_word(next_level);
  dev.launch(on, "shard_clear_bitmap",
             core::full_width_launch(dev.profile(), words),
             [=](sim::BlockCtx& blk) {
               auto& ctx = blk.ctx();
               blk.grid_stride(next.size(), [&](std::uint64_t w) {
                 ctx.store(next, w, std::uint64_t{0});
                 if (w == 0) ctx.store(claims, slot, std::uint64_t{0});
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
};

/// Owner-side OR standing in for the alltoall: every live sender's
/// candidate bits for owner o's word range travel encoded and are OR-
/// decoded into o's copy.  The wire time is charged by the caller from the
/// Exchange totals; host views are declared synced here because the
/// modelled fabric, not a memcpy, carries the bytes.
Exchange merge_candidates(const std::vector<Replica*>& live) {
  Exchange ex;
  std::vector<std::uint64_t> sent(live.size(), 0);
  for (Replica* g : live) g->next_bm.mark_host_synced();
  for (Replica* owner : live) {
    const WordRange wr = owned_words(*owner->rows);
    std::uint64_t received = 0;
    for (std::size_t rank = 0; rank < live.size(); ++rank) {
      const Replica* sender = live[rank];
      if (sender == owner) continue;
      const EncodedFrontier enc =
          encode_frontier(sender->next_bm.host_data(), wr.begin, wr.size());
      ex.raw += enc.raw_bytes();
      ex.wire += enc.wire_bytes();
      sent[rank] += enc.wire_bytes();
      received += enc.wire_bytes();
      if (enc.set_bits != 0) {
        decode_frontier_or(enc, owner->next_bm.host_data());
      }
    }
    ex.busiest = std::max(ex.busiest, received);
  }
  ex.busiest = std::max(ex.busiest, *std::max_element(sent.begin(), sent.end()));
  return ex;
}

/// Each live owner encodes its cleaned, boundary-masked slice, with its
/// claimed-degree sum beside the header; every live replica decodes the
/// full set into its frontier copy and the level's claim totals (the
/// header counts and degree sums) into its claims words for `level`.
Exchange broadcast_cleaned(const std::vector<Replica*>& live,
                           std::size_t words, std::uint32_t level) {
  const std::size_t slot = claims_word(level);
  Exchange ex;
  std::uint64_t claimed = 0, claimed_degree = 0;
  std::vector<std::uint64_t> global(words, 0);
  std::vector<std::uint64_t> slice;
  for (Replica* g : live) {
    g->next_bm.mark_host_synced();
    g->claims.mark_host_synced();
    const WordRange wr = owned_words(*g->rows);
    const std::uint64_t first = g->rows->first_vertex;
    const std::uint64_t last = first + g->rows->num_rows;  // exclusive
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
      slice[w - wr.begin] = g->next_bm.host_data()[w] & mask;
    }
    EncodedFrontier enc = encode_frontier(slice.data(), 0, slice.size());
    // Re-anchor the slice at its global word range: payload positions are
    // relative to the slice start in both formats, so only the base moves.
    enc.word_begin = wr.begin;
    ex.raw += enc.raw_bytes() + kDegreeFieldBytes;
    ex.wire += enc.wire_bytes() + kDegreeFieldBytes;
    claimed += enc.set_bits;
    claimed_degree += g->claims.h_read(slot);
    decode_frontier_or(enc, global.data());
  }
  for (Replica* g : live) {
    std::copy(global.begin(), global.end(), g->next_bm.host_data());
    g->next_bm.mark_device_synced();
    g->claims.h_write(slot, claimed_degree);
    g->claims.h_write(slot + 1, claimed);
    g->claims.mark_device_synced();
  }
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
  // The live replicas in shard order; each keeps a grid resident that fits
  // every phase of the sweep.
  std::vector<Replica*> live;
  std::vector<unsigned> live_shard;
  std::vector<sim::GridMember> members;
  double t0_us = 0.0;
  for (unsigned s = 0; s < S; ++s) {
    if (plan[s] == kLost) continue;
    if (plan[s] < 0 || static_cast<unsigned>(plan[s]) >= store_.replicas()) {
      throw std::invalid_argument("ShardSweep: bad replica index in plan");
    }
    Replica& g = store_.replica(s, static_cast<unsigned>(plan[s]));
    live.push_back(&g);
    live_shard.push_back(s);
    members.push_back(
        {g.device.get(), &g.device->stream(0),
         core::full_width_launch(
             g.device->profile(),
             std::max<std::uint64_t>(g.rows->num_rows, words_))});
    t0_us = std::max(t0_us, g.device->now_us());
  }
  const unsigned src_owner = store_.layout().owner(src);
  if (plan[src_owner] == kLost) {
    throw std::invalid_argument(
        "ShardSweep: source shard " + std::to_string(src_owner) +
        " is lost — no meaningful result exists");
  }
  const auto n_live = static_cast<unsigned>(live.size());

  ShardSweepResult result;
  result.shards_live = n_live;
  result.shards_lost = S - n_live;
  result.partial = result.shards_lost > 0;

  const dist::FabricModel& fabric = store_.config().fabric;
  const unsigned grid_rows = store_.layout().grid_rows();
  const unsigned grid_cols = store_.layout().grid_cols();
  const bool promotable = n_live >= 4 && grid_cols > 1;

  // Level-0 frontier metadata from the owner's local rows: kernel
  // arguments, like the source itself.
  const dist::LocalRows& owner_rows =
      *store_.replica(src_owner, static_cast<unsigned>(plan[src_owner])).rows;
  const vid_t r0 = src - owner_rows.first_vertex;
  std::uint64_t frontier_count = 1;
  std::uint64_t frontier_edges =
      owner_rows.offsets[r0 + 1] - owner_rows.offsets[r0];
  const std::uint64_t m = host_g.num_edges();

  obs::TraceSession& tr = obs::TraceSession::global();
  const bool tracing = tr.enabled();

  // One cooperative launch over the live replicas runs the level loop.
  // Its control flow comes from kernel arguments and the claim totals the
  // cleaned broadcast leaves in each replica's memory; the host reads
  // nothing until it ends.
  double comm_total_us = 0;
  const auto program = [&](sim::MultiGridCtx& mg) {
    for (std::size_t i = 0; i < n_live; ++i) {
      launch_init(mg.grid(i), *live[i], src);
    }
    for (std::uint32_t level = 0;; ++level) {
      const double ratio =
          static_cast<double>(frontier_edges) / static_cast<double>(m ? m : 1);
      const bool bottom_up = ratio > cfg_.alpha;
      const double level_t0 = mg.now_us();

      ShardLevelStats st{.level = level, .bottom_up = bottom_up,
                         .frontier_count = frontier_count,
                         .frontier_edges = frontier_edges, .ratio = ratio};
      const std::uint32_t next_level = level + 1;
      double comm_us = 0;
      if (bottom_up) {
        for (std::size_t i = 0; i < n_live; ++i) {
          run_bottomup(mg.grid(i), *live[i], next_level);
        }
        comm_us = mg.exchange("exchange:frontier-allgather", [&] {
          const Exchange bx = broadcast_cleaned(live, words_, level);
          st.raw_bytes = bx.raw;
          st.wire_bytes = bx.wire;
          return fabric.allgather_us(n_live, bx.wire);
        });
      } else {
        for (std::size_t i = 0; i < n_live; ++i) {
          run_topdown(mg.grid(i), *live[i]);
        }
        // Flat: the merge is a personalized all-to-all bounded by the
        // busiest device (or an allgather, if cheaper), the broadcast an
        // allgather over all live shards.  Two-phase (the 2D promotion):
        // candidates move within grid-column groups, the cleaned frontier
        // along grid rows.  The cheaper form is chosen on both collectives'
        // bytes, so the merge is charged the cheaper of its own two forms
        // and the broadcast the rest of the chosen form's cost.
        Exchange cx;
        double cand_us = 0, two_cand = 0;
        const double merge_us = mg.exchange("exchange:candidate-merge", [&] {
          cx = merge_candidates(live);
          cand_us = std::min(fabric.alltoall_us(n_live, cx.busiest),
                             fabric.allgather_us(n_live, cx.wire));
          if (!promotable) return cand_us;
          two_cand = fabric.allgather_us(grid_rows, cx.wire);
          return std::min(cand_us, two_cand);
        });
        for (std::size_t i = 0; i < n_live; ++i) {
          run_claim(mg.grid(i), *live[i], next_level);
        }
        comm_us = merge_us + mg.exchange("exchange:cleaned-allgather", [&] {
          const Exchange bx = broadcast_cleaned(live, words_, level);
          st.raw_bytes = cx.raw + bx.raw;
          st.wire_bytes = cx.wire + bx.wire;
          double clean_us = fabric.allgather_us(n_live, bx.wire);
          if (promotable) {
            const double two_clean = fabric.allgather_us(grid_cols, bx.wire);
            st.two_phase = two_cand + two_clean < cand_us + clean_us;
            if (st.two_phase) {
              cand_us = two_cand;
              clean_us = two_clean;
            }
          }
          return cand_us + clean_us - merge_us;
        });
      }

      const auto [claimed, claimed_degree] = mg.uniform(
          "shard_level_step", [&](std::size_t i, sim::BlockCtx& blk) {
            const auto claims = live[i]->claims.cspan();
            const std::size_t slot = claims_word(level);
            return std::pair{blk.ctx().load(claims, slot + 1),
                             blk.ctx().load(claims, slot)};
          });
      if (claimed != 0) {
        // Swap bitmaps and clear the new candidate map on every replica.
        for (std::size_t i = 0; i < n_live; ++i) {
          std::swap(live[i]->cur_bm, live[i]->next_bm);
          launch_clear(mg.grid(i), *live[i], words_, next_level);
        }
      }

      const double level_us = mg.now_us() - level_t0;
      st.local_ms = (level_us - comm_us) / 1000.0;
      st.comm_ms = comm_us / 1000.0;
      result.level_stats.push_back(st);
      result.raw_bytes += st.raw_bytes;
      result.wire_bytes += st.wire_bytes;
      comm_total_us += comm_us;

      if (tracing) {
        obs::Span sp;
        sp.name = "level " + std::to_string(level);
        sp.category = "level";
        sp.track = "dist-levels";
        sp.pid = 0;
        sp.sim_start_us = level_t0;
        sp.sim_dur_us = level_us;
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
      if (claimed == 0) break;
      frontier_count = claimed;
      frontier_edges = claimed_degree;
    }
  };
  try {
    sim::Device::launch_grid(members, "shard_sweep", program);
  } catch (const sim::MultiGridFault& f) {
    const unsigned s = live_shard[f.member()];
    throw ShardSweepFault(s, static_cast<unsigned>(plan[s]), f.what());
  }

  // Gather the owned status slices, one copy and one host wait per
  // replica; lost shards' ranges stay -1 (the partial contract).
  result.levels.assign(host_g.num_vertices(), -1);
  std::uint64_t reached_degree = 0;
  double end_us = t0_us;
  for (Replica* g : live) {
    g->device->memcpy_d2h(g->rows->num_rows * sizeof(std::uint32_t));
    g->status.mark_host_synced();
    g->device->synchronize();
    end_us = std::max(end_us, g->device->now_us());
    for (vid_t r = 0; r < g->rows->num_rows; ++r) {
      const std::uint32_t stv = g->status.h_read(r);
      if (stv != kUnvisited) {
        result.levels[g->rows->first_vertex + r] =
            static_cast<std::int32_t>(stv);
        reached_degree += g->rows->offsets[r + 1] - g->rows->offsets[r];
      }
    }
  }

  result.depth = static_cast<std::uint32_t>(result.level_stats.size());
  result.total_ms = (end_us - t0_us) / 1000.0;
  result.comm_ms = comm_total_us / 1000.0;
  result.edges_traversed = reached_degree / 2;
  result.gteps = core::safe_gteps(result.edges_traversed, result.total_ms);

  if (tracing) {
    obs::Span sp;
    sp.name = "shard_sweep.run";
    sp.category = "run";
    sp.track = "dist-levels";
    sp.pid = 0;
    sp.sim_start_us = t0_us;
    sp.sim_dur_us = end_us - t0_us;
    sp.attr("source", static_cast<std::int64_t>(src));
    sp.attr("shards", static_cast<std::uint64_t>(n_live));
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
