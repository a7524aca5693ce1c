// churn-durable: a dynamic serve::Server over a durable GraphStore
// (store::open_durable) taking open-loop Zipf reads while a writer thread
// applies edge batches on a fixed schedule; then a back-to-back update
// burst, then recovery of the directory the run left behind.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dyn/delta_ref.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "store/durability.h"
#include "traffic.h"
#include "workloads.h"

namespace xbench {

namespace {

namespace graph = xbfs::graph;
namespace serve = xbfs::serve;
namespace dyn = xbfs::dyn;
namespace store = xbfs::store;

struct ChurnSpec {
  unsigned scale = 14;
  unsigned smoke_scale = 10;
  double read_rate = 30.0;     ///< open-loop reads per second
  double update_rate = 50.0;   ///< scheduled update batches per second
  double open_share = 0.7;     ///< share of --seconds under churn
  double batch_share = 0.001;  ///< batch size as a share of undirected |E|
  std::size_t burst = 200;     ///< back-to-back batches for capacity
  std::size_t smoke_burst = 20;
  std::size_t candidates = 256;
  double zipf = 0.8;
  double tail_q = 0.98;
};

/// Pre-generated update batches, valid in any prefix order against the
/// base graph: each deletes base edges never deleted before and inserts
/// pairs absent from the base and never inserted before, so no op is a
/// no-op and the edge count stays flat.
std::vector<dyn::EdgeBatch> make_batches(const graph::Csr& g,
                                         std::size_t count, std::size_t size,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 41);
  const graph::vid_t n = g.num_vertices();
  std::uniform_int_distribution<graph::vid_t> vertex(0, n - 1);
  std::uniform_int_distribution<graph::eid_t> entry(0, g.num_edges() - 1);
  const auto& offsets = g.offsets();
  auto key = [](graph::vid_t a, graph::vid_t b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  };
  std::unordered_set<std::uint64_t> used;
  std::vector<dyn::EdgeBatch> out(count);
  for (dyn::EdgeBatch& b : out) {
    while (b.size() < size) {
      graph::vid_t u = 0, v = 0;
      const bool del = b.size() % 2 == 0;
      if (del) {
        const graph::eid_t e = entry(rng);
        u = static_cast<graph::vid_t>(
            std::upper_bound(offsets.begin(), offsets.end(), e) -
            offsets.begin() - 1);
        v = g.cols()[e];
      } else {
        u = vertex(rng);
        v = vertex(rng);
        const auto nb = g.neighbors(u);
        if (std::binary_search(nb.begin(), nb.end(), v)) continue;
      }
      if (u == v || !used.insert(key(u, v)).second) continue;
      if (del) {
        b.erase(u, v);
      } else {
        b.insert(u, v);
      }
    }
  }
  return out;
}

serve::ServeConfig churn_config() {
  serve::ServeConfig cfg;
  cfg.num_gcds = 1;
  cfg.require_durability = true;
  cfg.xbfs.report_runs = false;
  return cfg;
}

/// One durable serving stack in its own directory.
struct Durable {
  std::string dir;
  store::DurableStore ds;
  std::unique_ptr<serve::Server> server;

  /// Shut the server down and close the store, leaving the directory.
  void close() {
    server.reset();
    ds.store.reset();
    ds.durability.reset();
  }
};

Durable open_stack(const Options& opt, const graph::Csr& g, int serial,
                   Report& rep) {
  Durable d;
  d.dir = (std::filesystem::path(opt.workdir) /
           ("xbench-churn-" + std::to_string(opt.seed) + "-" +
            std::to_string(serial)))
              .string();
  std::filesystem::remove_all(d.dir);
  xbfs::core::XbfsConfig xcfg;
  xcfg.report_runs = false;
  const xbfs::Status s =
      store::open_durable(store::DurabilityConfig{.dir = d.dir}, g, xcfg,
                          /*log_capacity=*/256, &d.ds);
  rep.check(s.ok(), "open_durable: " + s.to_string());
  if (!s.ok()) return d;
  d.server = std::make_unique<serve::Server>(*d.ds.store, churn_config());
  return d;
}

}  // namespace

void run_churn_durable(Ctx& ctx) {
  const ChurnSpec spec;
  const Options& opt = ctx.opt;
  graph::Csr g;
  std::vector<graph::vid_t> candidates;  ///< Zipf ranks, hottest first
  std::vector<dyn::EdgeBatch> batches;
  Durable stack;
  int serial = 0;

  const double churn_s = opt.seconds * spec.open_share;
  const auto n_updates = static_cast<std::size_t>(spec.update_rate * churn_s);
  const std::size_t n_burst = opt.smoke ? spec.smoke_burst : spec.burst;

  run_setups(ctx, [&](SetupTimes& t) {
    stack.close();
    if (!stack.dir.empty()) std::filesystem::remove_all(stack.dir);
    t.graph_s = timed("setup.graph", [&] {
      g = make_rmat(opt.smoke ? spec.smoke_scale : spec.scale, opt.seed);
      candidates = shuffled_giant(g, opt.seed);
      candidates.resize(std::min(candidates.size(), spec.candidates));
      const std::size_t size = std::max<std::size_t>(
          4, static_cast<std::size_t>(spec.batch_share *
                                      static_cast<double>(g.num_edges() / 2)));
      batches = make_batches(g, n_updates + n_burst, size, opt.seed);
    });
    t.load_s = timed("setup.load", [&] {
      stack = open_stack(opt, g, serial++, ctx.report);
    });
  });
  if (!stack.server || candidates.empty()) {
    ctx.report.check(false, "churn-durable set-up failed");
    return;
  }
  const std::vector<graph::vid_t> reads = serve::zipf_sources(
      candidates, static_cast<std::size_t>(spec.read_rate * churn_s),
      spec.zipf, opt.seed);

  measure(ctx, [&](Ctx& c, bool traced) {
    if (!stack.server) stack = open_stack(opt, g, serial++, c.report);
    if (!stack.server) return 0.0;
    serve::Server& server = *stack.server;
    dyn::GraphStore& gs = *stack.ds.store;
    Recorder& rec = Recorder::global();

    // --- writer lane: scheduled updates beside open-loop reads ------------
    // The writer thread owns these until it is joined.
    std::vector<double> update_ms, wal_record_bytes;
    std::vector<std::pair<double, double>> update_spans;
    std::uint64_t update_failures = 0;
    // Applies one batch; returns when submit_update returned.
    auto apply = [&](const dyn::EdgeBatch& b) {
      const double t0 = now_s();
      if (!server.submit_update(b).accepted) ++update_failures;
      const double t1 = now_s();
      update_spans.emplace_back(t0, t1);
      return t1;
    };
    std::thread writer([&] {
      const dyn::DurabilityHook* hook = gs.durability();
      dyn::DurabilityStats prev = hook->stats();
      const double t0 = now_s() + 1e-3;
      for (std::size_t i = 0; i < n_updates; ++i) {
        const double due = t0 + static_cast<double>(i) / spec.update_rate;
        sleep_until_s(due);
        update_ms.push_back((apply(batches[i]) - due) * 1e3);
        const dyn::DurabilityStats now = hook->stats();
        if (now.wal_rotations == prev.wal_rotations &&
            now.wal_bytes > prev.wal_bytes) {
          wal_record_bytes.push_back(
              static_cast<double>(now.wal_bytes - prev.wal_bytes));
        }
        prev = now;
      }
    });
    const std::vector<Sent> open = send(
        reads, spec.read_rate, c.threads,
        [&](graph::vid_t s) { return server.submit(s); });
    writer.join();

    // --- update burst: one writer, back to back -----------------------------
    std::vector<double> burst_done;
    for (std::size_t i = 0; i < n_burst; ++i) {
      burst_done.push_back(apply(batches[n_updates + i]));
    }
    server.drain();
    record_query_spans(open, "serve.read");
    for (const auto& [t0, t1] : update_spans) rec.add("update.submit", t0, t1);

    // --- final reads against the host oracle on the final snapshot ---------
    const dyn::Snapshot snap = gs.snapshot();
    std::vector<std::vector<std::int32_t>> expect;
    for (std::size_t k = 0; k < std::min<std::size_t>(4, candidates.size());
         ++k) {
      serve::QueryOptions qo;
      qo.bypass_cache = true;
      serve::Admission a = server.submit(candidates[k], qo);
      const serve::QueryResult r = a.accepted ? a.result.get()
                                              : serve::QueryResult{};
      ScopedSpan span("validate");
      expect.push_back(dyn::reference_bfs(*snap.graph, candidates[k]));
      c.report.check(a.accepted && r.levels && *r.levels == expect.back(),
                     "final read from " + std::to_string(candidates[k]) +
                         " differs from dyn::reference_bfs");
    }
    const serve::ServerStats st = server.stats();
    const std::uint64_t live_fp = gs.fingerprint();
    const std::uint64_t live_epoch = gs.epoch();
    check_accounting(c, st, "server");
    c.report.check(st.updates_applied == n_updates + n_burst - update_failures,
                   "update accounting does not balance");
    stack.close();

    // --- recovery of the directory the run left behind ----------------------
    std::vector<double> recovery_s;
    std::uint64_t replayed = 0;
    for (int k = 0; k < kSetups; ++k) {
      store::DurableStore back;
      xbfs::core::XbfsConfig xcfg;
      xcfg.report_runs = false;
      const double t0 = now_s();
      const xbfs::Status s = store::open_durable(
          store::DurabilityConfig{.dir = stack.dir}, graph::Csr{}, xcfg, 256,
          &back);
      const double t1 = now_s();
      rec.add("recovery.open", t0, t1);
      recovery_s.push_back(t1 - t0);
      c.report.check(s.ok(), "recovery: " + s.to_string());
      if (!s.ok()) break;
      c.report.check(back.store->fingerprint() == live_fp &&
                         back.store->epoch() == live_epoch,
                     "recovered fingerprint/epoch differ from the live store");
      if (k == 0 && !expect.empty()) {
        c.report.check(dyn::reference_bfs(*back.store->snapshot().graph,
                                          candidates[0]) == expect[0],
                       "recovered graph answers a read differently");
      }
      replayed = back.durability->stats().wal_records_replayed;
      back.store.reset();
    }
    std::filesystem::remove_all(stack.dir);
    stack = Durable{};

    c.report.ops(open.size() + n_updates + n_burst,
                 failures(open) + update_failures);
    std::vector<double> read_ms, modelled_ms, computed_ms;
    for (const Sent& s : open) {
      if (!s.completed()) continue;
      read_ms.push_back(s.latency_ms());
      modelled_ms.push_back(modelled_query_ms(s.result));
      if (!s.result.cache_hit) computed_ms.push_back(modelled_ms.back());
    }
    const double modelled = median(computed_ms);
    c.report.check(modelled > 0.0, "no modelled device time attributed");
    c.report.e2e("modelled_ms", modelled, "ms", "modelled", "dyn",
                 computed_ms.size(), "p50 of computed");
    if (!traced) {
      report_wall(c, update_ms, spec.tail_q, steady_rate(burst_done), "store");
      return median(update_ms);
    }

    Report& rep = c.report;
    report_serving_layers(c, open);
    rep.layer("serve.read_p50_ms", median(read_ms), "ms", "wall", "serve",
              read_ms.size(), "p50");
    rep.layer("serve.read_p99_ms", percentile(read_ms, 0.99), "ms", "wall",
              "serve", read_ms.size(), "p99");
    rep.layer("serve.modelled_p99_ms", percentile(modelled_ms, 0.99), "ms",
              "modelled", "serve", modelled_ms.size(), "p99");
    rep.layer("serve.cache_hit_rate", st.cache_hit_rate, "ratio", "none",
              "serve", st.completed, "ratio");
    const double runs = static_cast<double>(st.repairs + st.recomputes);
    rep.layer("dyn.repair_share",
              runs > 0.0 ? static_cast<double>(st.repairs) / runs : 0.0,
              "ratio", "none", "dyn", st.repairs + st.recomputes, "ratio");
    rep.layer("dyn.repair_fallbacks", static_cast<double>(st.repair_fallbacks),
              "count", "none", "dyn", 1, "total");
    rep.layer("dyn.compactions", static_cast<double>(st.compactions), "count",
              "none", "dyn", 1, "total");
    rep.layer("dyn.purged_per_update",
              st.updates_applied ? static_cast<double>(st.cache_purged_stale) /
                                       static_cast<double>(st.updates_applied)
                                 : 0.0,
              "count", "none", "dyn", st.updates_applied);
    xbfs::obs::MetricsRegistry& mx = xbfs::obs::MetricsRegistry::global();
    auto hist = [&](const char* metric, const char* name) {
      const xbfs::obs::Histogram& h = mx.histogram(name);
      rep.layer(metric, h.percentile(0.99), "us", "wall", "store", h.count(),
                "p99 (log-bucketed)");
    };
    hist("store.wal_append_us_p99", "store.wal.append_us");
    hist("store.wal_fsync_us_p99", "store.wal.fsync_us");
    hist("store.snapshot_spill_us_p99", "store.snapshot.spill_us");
    rep.layer("store.wal_bytes_per_update", mean(wal_record_bytes), "B",
              "none", "store", wal_record_bytes.size());
    rep.layer("store.snapshots_spilled",
              static_cast<double>(st.snapshots_spilled), "count", "none",
              "store", 1, "total");
    rep.layer("store.recovery_s", median(recovery_s), "s", "wall", "store",
              recovery_s.size(), "median");
    rep.layer("store.recovery_replayed", static_cast<double>(replayed),
              "count", "none", "store", 1, "total");
    report_rung_ratio(c, open);
    report_cpu_baseline(c, g, candidates);
    return median(update_ms);
  });
  stack.close();
  if (!stack.dir.empty()) std::filesystem::remove_all(stack.dir);
}

}  // namespace xbench
