// serve-zipf (static serve::Server: cache + 64-way sweep batching) and
// shard-serve (shard::ShardRouter over an oversubscribed shard fleet).
// Both run an open-loop latency phase at a fixed rate, then a burst against
// a fresh front end for capacity.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "shard/router.h"
#include "shard/sharded_store.h"
#include "traffic.h"
#include "workloads.h"

namespace xbench {

namespace graph = xbfs::graph;
namespace serve = xbfs::serve;
namespace shard = xbfs::shard;

namespace {

// --- serve-zipf --------------------------------------------------------------

struct ZipfSpec {
  unsigned scale = 15;
  unsigned smoke_scale = 10;
  double rate = 85.0;            ///< open-loop arrivals per second
  double open_share = 0.8;       ///< share of --seconds in the open loop
  std::size_t candidates = 4096; ///< Zipf ranks over the giant component
  double zipf = 0.8;
  std::size_t burst = 1024;
  std::size_t smoke_burst = 64;
  double tail_q = 0.99;
};

serve::ServeConfig zipf_config() {
  serve::ServeConfig cfg;
  cfg.num_gcds = 2;
  cfg.xbfs.report_runs = false;
  return cfg;
}

}  // namespace

void run_serve_zipf(Ctx& ctx) {
  const ZipfSpec spec;
  const Options& opt = ctx.opt;
  graph::Csr g;
  std::vector<graph::vid_t> giant;
  std::unique_ptr<serve::Server> server;
  run_setups(ctx, [&](SetupTimes& t) {
    server.reset();
    t.graph_s = timed("setup.graph", [&] {
      g = make_rmat(opt.smoke ? spec.smoke_scale : spec.scale, opt.seed);
      giant = shuffled_giant(g, opt.seed);
    });
    t.load_s = timed("setup.load", [&] {
      server = std::make_unique<serve::Server>(g, zipf_config());
    });
  });
  giant.resize(std::min(giant.size(), spec.candidates));
  ctx.report.check(!giant.empty(), "giant component is empty");
  if (giant.empty()) return;

  const double open_s = opt.seconds * spec.open_share;
  const auto open_n = static_cast<std::size_t>(spec.rate * open_s);
  const std::vector<graph::vid_t> open_src =
      serve::zipf_sources(giant, open_n, spec.zipf, opt.seed);
  const std::vector<graph::vid_t> burst_src = serve::zipf_sources(
      giant, opt.smoke ? spec.smoke_burst : spec.burst, spec.zipf,
      opt.seed + 1);
  auto reference = [&](graph::vid_t src, const std::vector<std::int32_t>& l) {
    return l == graph::reference_bfs(g, src) ? std::string()
                                             : std::string("levels differ");
  };

  measure(ctx, [&](Ctx& c, bool traced) {
    if (!server) server = std::make_unique<serve::Server>(g, zipf_config());
    const std::vector<Sent> open =
        send(open_src, spec.rate, c.threads,
             [&](graph::vid_t s) { return server->submit(s); });
    server->drain();
    const serve::ServerStats st = server->stats();
    server.reset();  // the next pass gets a cold server
    record_query_spans(open, "serve.query");

    std::vector<Sent> burst;
    serve::ServerStats bst;
    {
      serve::Server fresh(g, zipf_config());
      burst = send(burst_src, 0.0, c.threads,
                   [&](graph::vid_t s) { return fresh.submit(s); });
      bst = fresh.stats();
    }
    check_payloads(c, open, 16, reference);
    check_payloads(c, burst, 64, reference);
    check_accounting(c, st, "server");
    c.report.ops(open.size() + burst.size(),
                 failures(open) + failures(burst));

    std::vector<double> lat_ms, modelled_ms, computed_ms;
    for (const Sent& s : open) {
      if (!s.completed()) continue;
      lat_ms.push_back(s.latency_ms());
      modelled_ms.push_back(modelled_query_ms(s.result));
      if (!s.result.cache_hit) computed_ms.push_back(modelled_ms.back());
    }
    const double modelled = median(computed_ms);
    c.report.check(modelled > 0.0, "no modelled device time attributed");
    c.report.e2e("modelled_ms", modelled, "ms", "modelled", "serve",
                 computed_ms.size(), "p50 of computed");
    if (!traced) {
      report_wall(c, lat_ms, spec.tail_q, capacity(burst), "serve");
      return median(lat_ms);
    }

    Report& rep = c.report;
    report_serving_layers(c, open);
    rep.layer("serve.modelled_p99_ms", percentile(modelled_ms, 0.99), "ms",
              "modelled", "serve", modelled_ms.size(), "p99");
    rep.layer("serve.cache_hit_rate", st.cache_hit_rate, "ratio", "none",
              "serve", st.completed, "ratio");
    rep.layer("serve.computed_per_completed",
              static_cast<double>(st.computed_sources) /
                  static_cast<double>(std::max<std::uint64_t>(1, st.completed)),
              "ratio", "none", "serve", st.completed, "ratio");
    // Batching only engages with a backlog: read it from the burst server.
    const double sweeps =
        static_cast<double>(std::max<std::uint64_t>(1, bst.sweeps));
    rep.layer("serve.batch_occupancy", bst.mean_batch_occupancy, "ratio",
              "none", "algos", bst.sweeps, "burst mean");
    rep.layer("serve.sources_per_sweep", bst.mean_sources_per_sweep, "count",
              "none", "algos", bst.sweeps, "burst mean");
    rep.layer("serve.singleton_share",
              static_cast<double>(bst.singleton_sweeps) / sweeps, "ratio",
              "none", "serve", bst.sweeps, "burst ratio");
    rep.layer("serve.modelled_ms_per_unit", bst.modelled_busy_ms / sweeps,
              "ms", "modelled", "serve", bst.sweeps, "burst mean");
    report_rung_ratio(c, open);
    report_cpu_baseline(c, g, giant);
    return median(lat_ms);
  });
}

// --- shard-serve -------------------------------------------------------------

namespace {

struct ShardSpec {
  unsigned scale = 14;
  unsigned smoke_scale = 10;
  unsigned shards = 4;
  double rate = 125.0;
  double open_share = 0.8;
  std::size_t burst = 512;
  std::size_t smoke_burst = 32;
  double tail_q = 0.99;
};

/// The router must go before the store it plans onto.
struct ShardState {
  std::unique_ptr<shard::ShardedStore> store;
  std::unique_ptr<shard::ShardRouter> router;

  void close() {
    router.reset();
    store.reset();
  }
};

/// 4 shards x 1 replica under a device budget of 1.25x the 4-way slice, so
/// the graph is well over twice what one budget-capped GCD could hold.
void open_tier(ShardState& st, const graph::Csr& g, unsigned shards) {
  st.close();
  shard::ShardStoreConfig scfg;
  scfg.shards = shards;
  scfg.replicas = 1;
  scfg.device_budget_bytes =
      shard::ShardedStore::estimate_replica_bytes(g, shards) * 5 / 4;
  scfg.device_options.num_workers = 1;
  st.store = std::make_unique<shard::ShardedStore>(g, scfg);
  shard::RouterConfig rcfg;
  rcfg.workers = 2;
  st.router = std::make_unique<shard::ShardRouter>(*st.store, rcfg);
}

}  // namespace

void run_shard_serve(Ctx& ctx) {
  const ShardSpec spec;
  const Options& opt = ctx.opt;
  graph::Csr g;
  std::vector<graph::vid_t> giant;
  ShardState tier;
  run_setups(ctx, [&](SetupTimes& t) {
    tier.close();
    t.graph_s = timed("setup.graph", [&] {
      g = make_rmat(opt.smoke ? spec.smoke_scale : spec.scale, opt.seed);
      giant = shuffled_giant(g, opt.seed);
    });
    t.load_s = timed("setup.load", [&] {
      open_tier(tier, g, spec.shards);
    });
  });

  // Distinct uniform sources: no query can hit the cache.
  const auto open_n =
      static_cast<std::size_t>(spec.rate * opt.seconds * spec.open_share);
  const std::size_t burst_n = opt.smoke ? spec.smoke_burst : spec.burst;
  std::vector<graph::vid_t> open_src, burst_src;
  for (std::size_t i = 0; i < open_n + burst_n && !giant.empty(); ++i) {
    (i < open_n ? open_src : burst_src).push_back(giant[i % giant.size()]);
  }
  ctx.report.check(giant.size() >= open_n + burst_n,
                   "giant component too small for distinct sources");
  auto validate = [&](graph::vid_t src, const std::vector<std::int32_t>& l) {
    return graph::validate_levels_graph500(g, src, l);
  };

  measure(ctx, [&](Ctx& c, bool traced) {
    if (!tier.router) open_tier(tier, g, spec.shards);
    const std::vector<Sent> open =
        send(open_src, spec.rate, c.threads,
             [&](graph::vid_t s) { return tier.router->submit(s); });
    tier.router->drain();
    const shard::RouterStats st = tier.router->stats();
    const shard::ShardMemoryReport mem = tier.store->memory_report();
    double resident = 0.0;
    for (unsigned s = 0; s < tier.store->shards(); ++s) {
      resident += static_cast<double>(
          tier.store->replica(s, 0).device->allocated_bytes());
    }
    tier.close();
    record_query_spans(open, "shard.query");

    std::vector<Sent> burst;
    {
      ShardState fresh;
      open_tier(fresh, g, spec.shards);
      burst = send(burst_src, 0.0, c.threads,
                   [&](graph::vid_t s) { return fresh.router->submit(s); });
    }
    std::uint64_t partial = 0;
    for (const Sent& s : open) partial += s.completed() && s.result.partial;
    for (const Sent& s : burst) partial += s.completed() && s.result.partial;
    c.report.check(partial == 0, std::to_string(partial) + " partial results");
    check_payloads(c, open, 16, validate);
    check_payloads(c, burst, 16, validate);
    check_accounting(c, st, "router");
    c.report.ops(open.size() + burst.size(),
                 failures(open) + failures(burst));

    std::vector<double> lat_ms;
    for (const Sent& s : open) {
      if (s.completed()) lat_ms.push_back(s.latency_ms());
    }
    const double sweeps =
        static_cast<double>(std::max<std::uint64_t>(1, st.sweeps));
    const double modelled_mean = st.modelled_total_ms / sweeps;
    c.report.check(modelled_mean > 0.0, "no modelled sweep time recorded");
    c.report.e2e("modelled_ms", modelled_mean, "ms", "modelled", "shard",
                 st.sweeps, "mean");
    if (!traced) {
      report_wall(c, lat_ms, spec.tail_q, capacity(burst), "shard");
      return median(lat_ms);
    }

    Report& rep = c.report;
    report_serving_layers(c, open);
    rep.layer("serve.modelled_p99_ms", st.modelled_p99_ms, "ms", "modelled",
              "shard", st.sweeps, "p99 (log-bucketed)");
    rep.layer("serve.cache_hit_rate", st.cache_hit_rate, "ratio", "none",
              "serve", st.completed, "ratio");
    rep.layer("shard.wire_kb_per_sweep",
              static_cast<double>(st.exchange_wire_bytes) / 1024.0 / sweeps,
              "KiB", "modelled", "shard", st.sweeps);
    rep.layer("shard.compression_ratio", st.compression_ratio, "ratio",
              "none", "shard", st.sweeps, "ratio");
    rep.layer("shard.two_phase_share",
              st.levels_swept ? static_cast<double>(st.two_phase_levels) /
                                    static_cast<double>(st.levels_swept)
                              : 0.0,
              "ratio", "none", "shard", st.levels_swept, "ratio");
    rep.layer("shard.levels_per_sweep",
              static_cast<double>(st.levels_swept) / sweeps, "count",
              "modelled", "shard", st.sweeps);
    rep.layer("shard.oversubscription", mem.oversubscription, "ratio", "none",
              "shard", 1, "ratio");
    rep.layer("hipsim.device_mb", resident / (1024.0 * 1024.0), "MiB",
              "modelled", "hipsim", spec.shards, "total");
    double service_ms = 0.0;
    for (const Sent& s : open) {
      if (s.completed()) service_ms += s.result.service_ms;
    }
    rep.layer("hipsim.wall_per_modelled",
              st.modelled_total_ms > 0.0 ? service_ms / st.modelled_total_ms
                                         : 0.0,
              "ratio", "wall", "hipsim", st.sweeps, "ratio");
    report_cpu_baseline(c, g, giant);
    return median(lat_ms);
  });
}

}  // namespace xbench
