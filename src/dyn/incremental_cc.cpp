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
  stat_.runs.add();
  const Snapshot snap = store_.snapshot();

  if (valid_ && snap.epoch == epoch_) {
    stat_.served_cached.add();
  } else {
    bool repaired = false;
    if (valid_) {
      bool truncated = false;
      const std::optional<EdgeBatch> ops =
          store_.ops_between(epoch_, snap.epoch, &truncated);
      if (!ops) {
        // Truncated or out-of-range both invalidate the remembered labels;
        // the flag keeps the wrap case from masquerading as "no ops".
        stat_.fallbacks_log.add();
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
          stat_.fallbacks_delete.add();
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
          stat_.ops_replayed.add(ops->ops.size());
          stat_.repairs.add();
          repaired = true;
        }
      }
    }
    if (!repaired) {
      labels_ = std::make_shared<const std::vector<vid_t>>(
          graph::canonical_components(*snap.graph));
      stat_.recomputes.add();
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
  const Handles& c = stat_;
  XBFS_STAT_LOAD(XBFS_INC_CC_STATS)
  return s;
}

void IncrementalCc::clear_history() {
  valid_ = false;
  labels_.reset();
}

}  // namespace xbfs::dyn
