// Tuning parameters of the XBFS runner: every knob the paper tunes or
// ablates (alpha, NFG, look-ahead, bitmap probing, balancing and stream
// mode, the spill factor), so benches can sweep them, plus the launch
// geometry toy-scale tests shrink.  Design constants the paper fixes live
// beside the code that reads them: kBlockThreads (core/status.h), the
// growth threshold (core/policy.cpp) and the degree bins
// (core/kernels_topdown.h).
#pragma once

#include <cstdint>

#include "core/status.h"
#include "core/status_code.h"

namespace xbfs::core {

/// Frontier-queue generation strategy (paper Sec. III).
enum class Strategy {
  ScanFree,    ///< atomic status update + atomic enqueue, O(|F|)
  SingleScan,  ///< status-scan queue generation + atomic-free update, O(|V|)
  BottomUp,    ///< 5-kernel double-scan with early termination, O(|E|) worst
};

const char* strategy_name(Strategy s);

/// Workload-balancing mode of the top-down gather (paper Sec. IV-A).
enum class Balancing {
  ThreadCentric,     ///< one lane per frontier vertex
  WavefrontCentric,  ///< whole wavefront per frontier vertex
  DegreeBinned,      ///< per-vertex choice by degree (XBFS default)
};

/// How frontier vertices are grouped into kernels/streams: the stream
/// consolidation optimization of Sec. IV-B.
enum class StreamMode {
  Single,        ///< one queue, one kernel, one stream (AMD-optimized)
  TripleBinned,  ///< small/medium/large queues on three streams (CUDA XBFS)
};

struct XbfsConfig {
  // --- adaptive policy -----------------------------------------------------
  /// Bottom-up threshold on ratio = (frontier edges)/|E| (paper: 0.1).
  double alpha = 0.1;
  /// Skip queue generation when the previous strategy produced the queue
  /// (the "No Frontier Generation" single-scan variant).
  bool enable_nfg = true;
  /// Bottom-up look-ahead: update next-next-level vertices whose neighbor
  /// was updated in the same bottom-up pass (the v7 -> v8 example).
  bool enable_lookahead = true;
  /// Force one strategy for every level (benches for Fig. 7, Tables III-V);
  /// negative = adaptive.
  int forced_strategy = -1;
  /// Bottom-up "bit status check": probe a per-level frontier bitmap
  /// (1 bit/vertex, maintained incrementally by every expansion) instead of
  /// the 4-byte status array during the early-termination scan.  Cuts the
  /// probe footprint 32x at the cost of one atomic-or per claimed vertex.
  bool bottomup_bitmap = false;

  // --- workload balancing --------------------------------------------------
  Balancing topdown_balancing = Balancing::DegreeBinned;
  /// Use wavefront-centric gather in the bottom-up expansion.  The paper
  /// found this *hurts* on 64-wide AMD wavefronts (early termination idles
  /// lanes); default off.
  bool bottomup_warp_centric = false;

  // --- streams -------------------------------------------------------------
  StreamMode stream_mode = StreamMode::Single;

  // --- launch geometry -----------------------------------------------------
  unsigned block_threads = kBlockThreads;
  /// 0 = auto: enough blocks to fill the CUs a few times over.
  unsigned grid_blocks = 0;
  /// Status-array segment length for the bottom-up count/queue-gen kernels;
  /// 0 = auto (a wavefront-size multiple, paper Sec. III-C).
  unsigned bu_segment_size = 0;

  // --- ablation knobs ------------------------------------------------------
  /// Issue-slot multiplier on the bottom-up expansion kernel modelling
  /// register spilling (1.0 = clang/-O3; the paper saw +17% from hipcc and
  /// up to 10x without -O3).
  double bottomup_spill_factor = 1.0;
  /// Record a parent tree alongside levels.
  bool build_parents = false;
  /// Emit one obs run-report record per run() when XBFS_RUN_REPORT is
  /// active.  High-QPS consumers (the serving engine runs thousands of
  /// traversals per process) turn this off and report their own summary.
  bool report_runs = true;

  // --- dynamic graphs (src/dyn, docs/dynamic.md) ---------------------------
  // dyn::IncrementalBfs runs Xbfs, with every knob above, over the device
  // mirror of the DeltaCsr; this is the only dynamic-only knob.
  /// Overlay density ((insert overlay + tombstone entries) / base |E|)
  /// above which dyn::GraphStore::apply compacts the DeltaCsr into a fresh
  /// flat base.
  double dyn_compact_threshold = 0.25;

  /// Reject nonsense configurations with a diagnostic instead of letting
  /// them silently misbehave.  Checked: alpha > 0 and finite (the adaptive
  /// range is (0,1); values above 1 are the documented "disable bottom-up"
  /// idiom and stay valid), block_threads >= 1, positive finite
  /// bottomup_spill_factor and dyn_compact_threshold.  Called by the Xbfs
  /// constructor (so also by dyn::IncrementalBfs) and serve::Server
  /// startup.
  Status validate() const;
};

}  // namespace xbfs::core
