#include "dyn/incremental_cc.h"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "graph/reference.h"

namespace xbfs::dyn {

using graph::vid_t;

IncrementalCc::IncrementalCc(GraphStore& store) : store_(store) {}

core::AlgoResult IncrementalCc::solve(const core::AlgoQuery&) {
  const auto t0 = std::chrono::steady_clock::now();
  runs_.fetch_add(1, std::memory_order_relaxed);
  const Snapshot snap = store_.snapshot();

  if (valid_ && snap.epoch == epoch_) {
    served_cached_.fetch_add(1, std::memory_order_relaxed);
  } else {
    bool repaired = false;
    if (valid_) {
      bool truncated = false;
      const std::optional<EdgeBatch> ops =
          store_.ops_between(epoch_, snap.epoch, &truncated);
      if (!ops) {
        // Truncated or out-of-range both invalidate the remembered labels;
        // the flag keeps the wrap case from masquerading as "no ops".
        fallbacks_log_.fetch_add(1, std::memory_order_relaxed);
      } else {
        bool has_delete = false;
        for (const EdgeOp& op : ops->ops) {
          if (!op.insert) {
            has_delete = true;
            break;
          }
        }
        if (has_delete) {
          // A delete can split a component; labels would have to increase,
          // which the decrease-only repair cannot express.
          fallbacks_delete_.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Insert-only gap: union-find over the prior labels.  Classes
          // are keyed by label value (a vertex id), merged toward the
          // smaller id so the result stays canonical.
          std::vector<vid_t> label = *labels_;
          const vid_t n = snap.graph->num_vertices();
          std::unordered_map<vid_t, vid_t> parent;
          const auto find = [&parent](vid_t x) {
            vid_t root = x;
            for (auto it = parent.find(root);
                 it != parent.end() && it->second != root;
                 it = parent.find(root)) {
              root = it->second;
            }
            // Path-compress the chain onto the root.
            while (x != root) {
              auto it = parent.find(x);
              const vid_t next = it == parent.end() ? root : it->second;
              parent[x] = root;
              x = next;
            }
            return root;
          };
          for (const EdgeOp& op : ops->ops) {
            if (op.u >= n || op.v >= n || op.u == op.v) continue;
            const vid_t ru = find(label[op.u]);
            const vid_t rv = find(label[op.v]);
            if (ru == rv) continue;
            const vid_t lo = ru < rv ? ru : rv;
            const vid_t hi = ru < rv ? rv : ru;
            parent[hi] = lo;
          }
          for (vid_t v = 0; v < n; ++v) label[v] = find(label[v]);
          labels_ = std::make_shared<const std::vector<vid_t>>(std::move(label));
          ops_replayed_.fetch_add(ops->ops.size(), std::memory_order_relaxed);
          repairs_.fetch_add(1, std::memory_order_relaxed);
          repaired = true;
        }
      }
    }
    if (!repaired) {
      labels_ = std::make_shared<const std::vector<vid_t>>(
          graph::canonical_components(*snap.graph));
      recomputes_.fetch_add(1, std::memory_order_relaxed);
    }
    epoch_ = snap.epoch;
    snap_ = snap;
    valid_ = true;
  }
  if (!snap_) snap_ = snap;

  core::AlgoResult out;
  out.payload.kind = core::AlgoKind::Cc;
  out.payload.components = labels_;
  out.total_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return out;
}

IncCcStats IncrementalCc::stats() const {
  IncCcStats s;
  s.runs = runs_.load(std::memory_order_relaxed);
  s.served_cached = served_cached_.load(std::memory_order_relaxed);
  s.repairs = repairs_.load(std::memory_order_relaxed);
  s.recomputes = recomputes_.load(std::memory_order_relaxed);
  s.fallbacks_delete = fallbacks_delete_.load(std::memory_order_relaxed);
  s.fallbacks_log = fallbacks_log_.load(std::memory_order_relaxed);
  s.ops_replayed = ops_replayed_.load(std::memory_order_relaxed);
  return s;
}

void IncrementalCc::clear_history() {
  valid_ = false;
  labels_.reset();
}

}  // namespace xbfs::dyn
