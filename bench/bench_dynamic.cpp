// Dynamic-graph load harness (docs/dynamic.md).
//
//  1. Churn sweep: a stream of small edge batches (default 0.5% of the
//     undirected edge count) is applied to a GraphStore; after each batch
//     the same source is queried through dyn::IncrementalBfs — a device
//     mirror sync plus one Xbfs traversal.  Every run is checked against a
//     fresh host reference BFS, and the modelled time of the first run
//     after each epoch change (the one that pays the mirror sync) is
//     recorded.
//
//  2. Epoch-churn serving: Zipf-skewed read traffic against a dynamic
//     serve::Server while a writer lane interleaves update batches.  Every
//     update bumps the epoch and purges the result cache, so the steady
//     hit rate under churn — plus the epoch-bump / purge / recompute
//     counters from ServerStats — lands in the run record.
//
//   bench_dynamic [--scale=14] [--edge-factor=16] [--rounds=12]
//                 [--batch-edges=0]   (0 = 0.5% of undirected |E|)
//                 [--queries=256] [--zipf=1.0] [--candidates=32]
//                 [--updates=16] [--gcds=1] [--seed=1]
//
// Under XBFS_SANITIZE the whole run doubles as a SimSan gate: the bench
// prints the sanitizer summary and fails on any unannotated finding.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "dyn/delta_ref.h"
#include "dyn/graph_store.h"
#include "dyn/incremental_bfs.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/hipsim.h"
#include "hipsim/sanitizer.h"
#include "obs/query_trace.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace {

struct Options {
  unsigned scale = 14;
  unsigned edge_factor = 16;
  unsigned rounds = 12;
  std::size_t batch_edges = 0;  ///< 0 = 0.5% of the undirected edge count
  std::size_t queries = 256;
  double zipf = 1.0;
  std::size_t candidates = 32;
  unsigned updates = 16;  ///< update batches interleaved with the reads
  unsigned gcds = 1;
  std::uint64_t seed = 1;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto num = [&](const char* flag) -> const char* {
      const std::size_t len = std::strlen(flag);
      if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
      return nullptr;
    };
    const char* v;
    if ((v = num("--scale"))) o.scale = std::atoi(v);
    else if ((v = num("--edge-factor"))) o.edge_factor = std::atoi(v);
    else if ((v = num("--rounds"))) o.rounds = std::atoi(v);
    else if ((v = num("--batch-edges"))) o.batch_edges = std::atoll(v);
    else if ((v = num("--queries"))) o.queries = std::atoll(v);
    else if ((v = num("--zipf"))) o.zipf = std::atof(v);
    else if ((v = num("--candidates"))) o.candidates = std::atoll(v);
    else if ((v = num("--updates"))) o.updates = std::atoi(v);
    else if ((v = num("--gcds"))) o.gcds = std::atoi(v);
    else if ((v = num("--seed"))) o.seed = std::atoll(v);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return o;
}

/// A random mixed batch against the store's current snapshot: existing
/// picks become deletes, absent pairs become inserts.
xbfs::dyn::EdgeBatch random_batch(const xbfs::dyn::GraphStore& store,
                                  std::size_t edges, std::mt19937_64& rng) {
  using xbfs::graph::vid_t;
  const xbfs::dyn::Snapshot snap = store.snapshot();
  const vid_t n = snap.graph->num_vertices();
  std::uniform_int_distribution<vid_t> pick(0, n - 1);
  xbfs::dyn::EdgeBatch b;
  while (b.size() < edges) {
    const vid_t u = pick(rng);
    if (rng() & 1) {
      // Delete a random incident edge when the vertex has one.
      const vid_t deg = snap.graph->degree(u);
      if (deg == 0) continue;
      vid_t target = static_cast<vid_t>(rng() % deg);
      vid_t chosen = u;
      snap.graph->for_each_neighbor(u, [&](vid_t w) {
        if (target-- == 0) chosen = w;
      });
      if (chosen != u) b.erase(u, chosen);
    } else {
      const vid_t v = pick(rng);
      if (u != v && !snap.graph->has_edge(u, v)) b.insert(u, v);
    }
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xbfs;
  const Options opt = parse(argc, argv);

  graph::RmatParams rp;
  rp.scale = opt.scale;
  rp.edge_factor = opt.edge_factor;
  rp.seed = opt.seed;
  const graph::Csr g = graph::rmat_csr(rp);
  const std::size_t und_edges = g.num_edges() / 2;
  const std::size_t batch_edges =
      opt.batch_edges > 0 ? opt.batch_edges
                          : std::max<std::size_t>(4, und_edges / 200);
  std::printf("bench_dynamic: RMAT scale=%u ef=%u (n=%llu, |E|=%zu undirected), "
              "%u rounds x %zu-edge batches (%.2f%% of |E|)\n",
              opt.scale, opt.edge_factor,
              static_cast<unsigned long long>(g.num_vertices()), und_edges,
              opt.rounds, batch_edges, 100.0 * batch_edges / und_edges);

  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant.empty() ? 0 : giant[giant.size() / 2];
  std::mt19937_64 rng(opt.seed * 7919 + 1);

  obs::ReportSession& report = obs::ReportSession::global();
  if (report.enabled()) {
    report.set_context("bench", "dynamic");
    report.set_context("scale", std::to_string(opt.scale));
  }

  // Surface an error-budget readout for the churn phase even when XBFS_SLO
  // didn't configure one (availability-only: epoch churn must not burn).
  if (!obs::SloEngine::global().enabled()) {
    obs::SloEngine::global().configure("availability=0.99");
  }

  // --- phase 1: churn sweep, every run checked against the reference -----
  dyn::GraphStore store(g);
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 2});
  core::XbfsConfig xcfg;
  xcfg.report_runs = false;
  dyn::DeviceMirror mirror(dev, store, xcfg.block_threads);
  dyn::IncrementalBfs eng(mirror, xcfg);
  (void)eng.run(src);  // uploads the base

  double first_run_ms_sum = 0.0;
  for (unsigned r = 0; r < opt.rounds; ++r) {
    (void)store.apply(random_batch(store, batch_edges, rng));
    const core::BfsResult res = eng.run(src);
    if (res.levels != dyn::reference_bfs(*store.snapshot().graph, src)) {
      std::fprintf(stderr, "round %u: levels diverge from reference\n", r);
      return 1;
    }
    first_run_ms_sum += res.total_ms;
  }
  const double first_run_ms =
      opt.rounds > 0 ? first_run_ms_sum / opt.rounds : 0.0;
  std::printf("churn:  %u rounds, every run equals the reference; first run "
              "after an epoch change %.3f modelled ms (mirror sync incl.)\n",
              opt.rounds, first_run_ms);

  // --- phase 2: Zipf reads against a serving lane under epoch churn ---------
  dyn::GraphStore serve_store(g);
  serve::ServeConfig scfg;
  scfg.num_gcds = opt.gcds;
  scfg.batch_window_ms = 0.5;
  scfg.slo_scope = "serve-dynamic";
  scfg.xbfs.report_runs = false;
  serve::Server server(serve_store, scfg);

  std::vector<graph::vid_t> candidates;
  const std::size_t ncand = std::min(opt.candidates, giant.size());
  for (std::size_t i = 0; i < ncand; ++i) {
    candidates.push_back(giant[(i * giant.size()) / ncand]);
  }
  const auto sources =
      serve::zipf_sources(candidates, opt.queries, opt.zipf, opt.seed);
  const std::size_t update_stride =
      opt.updates > 0 ? std::max<std::size_t>(1, sources.size() / opt.updates)
                      : sources.size() + 1;

  std::vector<std::future<serve::QueryResult>> futs;
  futs.reserve(sources.size());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i > 0 && i % update_stride == 0) {
      const serve::UpdateAdmission ua =
          server.submit_update(random_batch(serve_store, batch_edges, rng));
      if (!ua.accepted) {
        std::fprintf(stderr, "update rejected: %s\n",
                     ua.status.to_string().c_str());
        return 1;
      }
    }
    serve::Admission a = server.submit(sources[i]);
    if (!a.accepted) {
      ++rejected;
      continue;
    }
    futs.push_back(std::move(a.result));
  }
  server.drain();
  std::size_t completed = 0;
  // Exemplar under churn: the first completed query whose trace crossed an
  // epoch bump on the read lane (a recompute event carrying the write
  // lane's epoch) goes into the run record verbatim.
  std::string churn_trace;
  for (auto& f : futs) {
    const serve::QueryResult r = f.get();
    if (r.status == serve::QueryStatus::Completed) ++completed;
    if (churn_trace.empty() && r.status == serve::QueryStatus::Completed &&
        r.trace != nullptr && r.trace->find_event("recompute") >= 0) {
      churn_trace = r.trace->to_json("completed");
    }
  }
  server.shutdown();  // emits the serving summary into XBFS_RUN_REPORT
  const serve::ServerStats st = server.stats();

  std::printf("serve:  %zu/%zu completed (%zu rejected) across %llu epochs\n",
              completed, sources.size(), rejected,
              static_cast<unsigned long long>(st.graph_epoch));
  std::printf("        cache hit rate %.1f%% under churn  (bumps %llu, "
              "purged %llu, stale avoided %llu)\n",
              st.cache_hit_rate * 100.0,
              static_cast<unsigned long long>(st.cache_epoch_bumps),
              static_cast<unsigned long long>(st.cache_purged_stale),
              static_cast<unsigned long long>(st.cache_stale_hits_avoided));
  std::printf("        repairs %llu  recomputes %llu  fallbacks %llu  "
              "compactions %llu\n",
              static_cast<unsigned long long>(st.repairs),
              static_cast<unsigned long long>(st.recomputes),
              static_cast<unsigned long long>(st.repair_fallbacks),
              static_cast<unsigned long long>(st.compactions));

  if (report.enabled()) {
    obs::RunRecord rec;
    rec.tool = "bench_dynamic";
    rec.algorithm = "bfs-dynamic";
    rec.n = g.num_vertices();
    rec.m = g.num_edges();
    rec.total_ms = first_run_ms_sum;
    char buf[32];
    auto f = [&](double v) {
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      return std::string(buf);
    };
    rec.config = {
        {"rounds", std::to_string(opt.rounds)},
        {"batch_edges", std::to_string(batch_edges)},
        {"batch_edge_pct", f(100.0 * batch_edges / und_edges)},
        {"churn_rounds", std::to_string(opt.rounds)},
        {"first_run_ms", f(first_run_ms)},
        {"queries", std::to_string(sources.size())},
        {"completed", std::to_string(completed)},
        {"updates_applied", std::to_string(st.updates_applied)},
        {"graph_epoch", std::to_string(st.graph_epoch)},
        {"churn_hit_rate", f(st.cache_hit_rate)},
        {"cache_epoch_bumps", std::to_string(st.cache_epoch_bumps)},
        {"cache_purged_stale", std::to_string(st.cache_purged_stale)},
        {"repairs", std::to_string(st.repairs)},
        {"recomputes", std::to_string(st.recomputes)},
        {"repair_fallbacks", std::to_string(st.repair_fallbacks)},
        {"traced_queries", std::to_string(st.traced_queries)},
        // One churn-crossing query's trace ("xbfs-query-trace" JSON, the
        // read lane observing the write lane's epoch); escaped, so it
        // round-trips through json.loads.
        {"churn_trace", churn_trace},
    };
    if (st.slo.active) {
      rec.config.emplace_back("slo_bad", std::to_string(st.slo.total_bad));
      rec.config.emplace_back("slo_burn", f(st.slo.window.burn_rate));
      rec.config.emplace_back("slo_budget", f(st.slo.budget_remaining));
    }
    report.add(std::move(rec));
  }

  // --- gates ----------------------------------------------------------------
  if (completed == 0 || completed + rejected != sources.size()) {
    std::fprintf(stderr, "serving lost queries: %zu completed + %zu rejected "
                 "!= %zu submitted\n",
                 completed, rejected, sources.size());
    return 1;
  }

  // Under XBFS_SANITIZE the bench doubles as a SimSan gate for the dynamic
  // kernels: all traffic above went through checked accessors.
  auto& san = sim::Sanitizer::global();
  if (san.enabled()) {
    san.summary(std::cout);
    if (san.unannotated_count() > 0) {
      std::printf("bench_dynamic: FAIL — %llu unannotated sanitizer "
                  "finding(s)\n",
                  static_cast<unsigned long long>(san.unannotated_count()));
      return 1;
    }
    std::printf("bench_dynamic: sanitizer clean (%llu allowlisted)\n",
                static_cast<unsigned long long>(san.allowlisted_count()));
  }
  return 0;
}
