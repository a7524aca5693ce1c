// Serving-engine load harness: Zipf-skewed query traffic against one graph,
// comparing the batched+cached serving engine to the naive baseline (one
// single-source Xbfs::run per query, no sharing, no cache).
//
// The serving claim quantified here: on skewed traffic, 64-way bit-parallel
// batching plus a small result cache multiplies query throughput — the
// server's summary record (QPS, p50/p95/p99 latency, batch occupancy, cache
// hit rate) lands in XBFS_RUN_REPORT alongside this bench's comparison
// record.
//
//   bench_serving [--scale=18] [--edge-factor=16] [--queries=512]
//                 [--zipf=1.0] [--candidates=64] [--clients=8] [--gcds=1]
//                 [--min-sweep=N] [--naive-queries=N] [--open-qps=Q]
//                 [--timeout-ms=T] [--seed=1] [--check=MIN_SPEEDUP]
//                 [--chaos] [--fault-kernel=R] [--fault-memcpy=R]
//                 [--fault-stall=R] [--fault-seed=S] [--chaos-check=MAX_RATIO]
//
// --open-qps switches the serving phase from the closed-loop driver to
// open-loop paced arrivals.  --naive-queries subsamples the (slow) naive
// baseline; QPS is a rate, so the comparison stays apples-to-apples.
// --check exits non-zero unless served/naive speedup reaches the bound.
//
// --chaos reruns the same load against a second server with the fault
// injector on (defaults: 5% kernel faults, 2% memcpy corruption).  The run
// fails if any admitted query resolves Failed, and --chaos-check bounds the
// p99 latency inflation (chaos p99 / fault-free p99).
//
// The phases record into separate SLO scopes ("serve-clean" vs
// "serve-chaos"; obs::SloEngine, activated here with an availability
// objective when XBFS_SLO didn't set one), so the chaos record can show
// zero error-budget burn fault-free next to non-zero burn under injection.
// --chaos additionally runs an *escalation probe*: a deliberately brittle
// server (no host fallback, thin retry budget, raised fault rate, breakers
// effectively disabled) whose queries exhaust the resilience ladder — the
// resulting Failed query's full trace, and a degraded exemplar from the
// resilient chaos server, are embedded in the chaos run record
// (failed_trace / degraded_trace, "xbfs-query-trace" JSON).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/fault.h"
#include "obs/flight_recorder.h"
#include "obs/query_trace.h"
#include "obs/run_report.h"
#include "obs/slo.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace {

struct Options {
  unsigned scale = 18;
  unsigned edge_factor = 16;
  std::size_t queries = 512;
  double zipf = 1.0;
  std::size_t candidates = 64;
  unsigned clients = 8;
  unsigned gcds = 1;
  unsigned min_sweep = 0;  ///< 0 = server default
  std::size_t naive_queries = 0;  ///< 0 = same as queries
  double open_qps = 0.0;          ///< > 0 switches to open-loop arrivals
  double timeout_ms = 0.0;
  std::uint64_t seed = 1;
  double check = 0.0;  ///< required served/naive speedup; 0 = report only

  bool chaos = false;  ///< rerun the load with fault injection on
  double fault_kernel = 0.05;
  double fault_memcpy = 0.02;
  double fault_stall = 0.0;
  std::uint64_t fault_seed = 42;
  double chaos_check = 0.0;  ///< max chaos/clean p99 ratio; 0 = report only
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
    else if ((v = num("--queries"))) o.queries = std::atoll(v);
    else if ((v = num("--zipf"))) o.zipf = std::atof(v);
    else if ((v = num("--candidates"))) o.candidates = std::atoll(v);
    else if ((v = num("--clients"))) o.clients = std::atoi(v);
    else if ((v = num("--gcds"))) o.gcds = std::atoi(v);
    else if ((v = num("--min-sweep"))) o.min_sweep = std::atoi(v);
    else if ((v = num("--naive-queries"))) o.naive_queries = std::atoll(v);
    else if ((v = num("--open-qps"))) o.open_qps = std::atof(v);
    else if ((v = num("--timeout-ms"))) o.timeout_ms = std::atof(v);
    else if ((v = num("--seed"))) o.seed = std::atoll(v);
    else if ((v = num("--check"))) o.check = std::atof(v);
    else if (std::strcmp(argv[i], "--chaos") == 0) o.chaos = true;
    else if ((v = num("--fault-kernel"))) o.fault_kernel = std::atof(v);
    else if ((v = num("--fault-memcpy"))) o.fault_memcpy = std::atof(v);
    else if ((v = num("--fault-stall"))) o.fault_stall = std::atof(v);
    else if ((v = num("--fault-seed"))) o.fault_seed = std::atoll(v);
    else if ((v = num("--chaos-check"))) o.chaos_check = std::atof(v);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (o.naive_queries == 0) o.naive_queries = o.queries;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xbfs;
  const Options opt = parse(argc, argv);

  // The bench owns the fault injector: the naive baseline and the clean
  // serving phase have no retry layer / must stay fault-free for an honest
  // p99 baseline, so ambient XBFS_FAULTS is cleared here and chaos is
  // opted into with --chaos.
  sim::FaultInjector::global().disable();

  // Always produce an error-budget comparison: activate the SLO engine
  // with an availability-only objective when XBFS_SLO didn't configure one.
  if (!obs::SloEngine::global().enabled()) {
    obs::SloEngine::global().configure("availability=0.99");
  }
  // Arm the flight recorder (and its signal flush) before the naive phase,
  // so a kill during any phase still leaves a post-mortem behind.
  (void)obs::FlightRecorder::global().enabled();

  std::printf("bench_serving: RMAT scale=%u ef=%u, %zu queries, Zipf(%.2f) "
              "over %zu sources, %u clients, %u GCD(s)\n",
              opt.scale, opt.edge_factor, opt.queries, opt.zipf,
              opt.candidates, opt.clients, opt.gcds);

  graph::RmatParams rp;
  rp.scale = opt.scale;
  rp.edge_factor = opt.edge_factor;
  rp.seed = opt.seed;
  const graph::Csr g = graph::rmat_csr(rp);
  const auto giant = graph::largest_component_vertices(g);
  std::printf("graph: n=%llu m=%llu giant=%zu\n",
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()), giant.size());

  std::vector<graph::vid_t> candidates;
  const std::size_t ncand = std::min(opt.candidates, giant.size());
  for (std::size_t i = 0; i < ncand; ++i) {
    candidates.push_back(giant[(i * giant.size()) / ncand]);
  }
  const auto sources =
      serve::zipf_sources(candidates, opt.queries, opt.zipf, opt.seed);

  obs::ReportSession& report = obs::ReportSession::global();
  if (report.enabled()) {
    report.set_context("bench", "serving");
    report.set_context("scale", std::to_string(opt.scale));
    report.set_context("zipf", std::to_string(opt.zipf));
  }

  // --- naive baseline: one single-source traversal per query ---------------
  const std::size_t naive_n = std::min(opt.naive_queries, sources.size());
  double naive_qps = 0.0, naive_wall_ms = 0.0;
  {
    sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                    sim::SimOptions{.num_workers = 1, .profiling = false});
    dev.warmup();
    auto dg = graph::DeviceCsr::upload(dev, g);
    core::XbfsConfig xcfg;
    xcfg.report_runs = false;  // 512 per-query records would bury the summary
    core::Xbfs xbfs(dev, dg, xcfg);

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < naive_n; ++i) {
      const core::BfsResult r = xbfs.run(sources[i]);
      if (r.levels[sources[i]] != 0) {
        std::fprintf(stderr, "naive run produced bad levels\n");
        return 1;
      }
    }
    naive_wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    naive_qps = naive_n / (naive_wall_ms / 1000.0);
  }
  std::printf("naive:  %zu queries in %.1f ms -> %.1f QPS\n", naive_n,
              naive_wall_ms, naive_qps);

  // --- batched + cached serving engine --------------------------------------
  serve::ServeConfig scfg;
  scfg.num_gcds = opt.gcds;
  scfg.batch_window_ms = 0.5;
  scfg.slo_scope = "serve-clean";
  if (opt.min_sweep > 0) scfg.min_sweep_sources = opt.min_sweep;
  if (opt.timeout_ms > 0.0) scfg.default_timeout_ms = opt.timeout_ms;
  serve::Server server(g, scfg);

  serve::LoadOptions lopt;
  lopt.clients = opt.clients;
  lopt.arrival_qps = opt.open_qps;
  const serve::LoadReport lrep =
      opt.open_qps > 0.0 ? serve::run_open_loop(server, sources, lopt)
                         : serve::run_closed_loop(server, sources, lopt);

  // Spot-check served correctness against the host reference.
  {
    serve::Admission probe = server.submit(sources[0]);
    if (!probe.accepted) return 1;
    const serve::QueryResult r = probe.result.get();
    if (r.status != serve::QueryStatus::Completed ||
        *r.levels != graph::reference_bfs(g, sources[0])) {
      std::fprintf(stderr, "served levels diverge from reference\n");
      return 1;
    }
  }

  server.shutdown();  // emits the serving summary into XBFS_RUN_REPORT
  const serve::ServerStats st = server.stats();

  const double speedup = naive_qps > 0.0 ? lrep.qps / naive_qps : 0.0;
  std::printf("served: %llu completed (%llu expired, %llu rejected) in "
              "%.1f ms -> %.1f QPS  [%.2fx naive]\n",
              static_cast<unsigned long long>(lrep.completed),
              static_cast<unsigned long long>(lrep.expired),
              static_cast<unsigned long long>(lrep.rejected), lrep.wall_ms,
              lrep.qps, speedup);
  std::printf("        cache hit rate %.1f%%  batch occupancy %.2f  "
              "sweeps %llu (singleton %llu)  computed %llu/%llu\n",
              st.cache_hit_rate * 100.0, st.mean_batch_occupancy,
              static_cast<unsigned long long>(st.sweeps),
              static_cast<unsigned long long>(st.singleton_sweeps),
              static_cast<unsigned long long>(st.computed_sources),
              static_cast<unsigned long long>(st.completed));
  std::printf("        latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f  "
              "max %.3f  (queue p50 %.3f p99 %.3f)\n",
              st.latency_p50_ms, st.latency_p95_ms, st.latency_p99_ms,
              st.latency_mean_ms, st.latency_max_ms, st.queue_p50_ms,
              st.queue_p99_ms);

  // --- chaos phase: the same load with the fault injector on ----------------
  serve::LoadReport crep;
  serve::ServerStats cst;
  double p99_ratio = 0.0;
  std::uint64_t injected = 0;
  std::string degraded_trace;  ///< a retried/degraded Completed query's trace
  std::string failed_trace;    ///< an escalation-probe Failed query's trace
  std::uint64_t probe_submitted = 0, probe_failed = 0;
  if (opt.chaos) {
    sim::FaultConfig fc;
    fc.kernel_fault_rate = opt.fault_kernel;
    fc.memcpy_corruption_rate = opt.fault_memcpy;
    fc.worker_stall_rate = opt.fault_stall;
    fc.seed = opt.fault_seed;
    sim::FaultInjector::global().configure(fc);
    std::printf("chaos:  kernel=%.3f memcpy=%.3f stall=%.3f seed=%llu\n",
                fc.kernel_fault_rate, fc.memcpy_corruption_rate,
                fc.worker_stall_rate,
                static_cast<unsigned long long>(fc.seed));

    serve::ServeConfig ccfg = scfg;
    ccfg.slo_scope = "serve-chaos";
    serve::Server chaos_server(g, ccfg);
    crep = opt.open_qps > 0.0
               ? serve::run_open_loop(chaos_server, sources, lopt)
               : serve::run_closed_loop(chaos_server, sources, lopt);

    // Under faults the served levels must still match the host reference.
    {
      serve::Admission probe = chaos_server.submit(sources[0]);
      if (!probe.accepted) return 1;
      const serve::QueryResult r = probe.result.get();
      if (r.status != serve::QueryStatus::Completed ||
          *r.levels != graph::reference_bfs(g, sources[0])) {
        std::fprintf(stderr, "chaos levels diverge from reference\n");
        return 1;
      }
    }

    // Degraded exemplar: keep submitting cache-bypassing singletons until
    // one survives a fault (retried or rung-degraded) — its trace shows
    // admission -> fault -> retry -> validated with per-rung attribution.
    // Prefer one that actually ran on a device (non-zero launch counters)
    // over a pure host fallback.  An XBFS traversal is one cooperative
    // launch, so at the acceptance mix a singleton rarely meets a fault;
    // the search runs at the escalation probe's raised kernel-fault rate.
    sim::FaultConfig sfc = fc;
    sfc.kernel_fault_rate = std::max(opt.fault_kernel, 0.3);
    sim::FaultInjector::global().configure(sfc);
    bool degraded_on_device = false;
    for (unsigned i = 0; i < 64 && !degraded_on_device; ++i) {
      serve::QueryOptions qo;
      qo.bypass_cache = true;
      serve::Admission a =
          chaos_server.submit(sources[i % sources.size()], qo);
      if (!a.accepted) continue;
      const serve::QueryResult r = a.result.get();
      if (r.status == serve::QueryStatus::Completed && r.degraded &&
          r.trace != nullptr) {
        for (const obs::RungAttribution& ra : r.trace->rungs()) {
          if (ra.launches > 0) degraded_on_device = true;
        }
        if (degraded_on_device || degraded_trace.empty()) {
          degraded_trace = r.trace->to_json("completed");
        }
      }
    }
    sim::FaultInjector::global().configure(fc);

    chaos_server.shutdown();
    cst = chaos_server.stats();

    // Escalation probe: a brittle server (no host fallback, two attempts,
    // no cache, breakers held closed) under a raised fault rate, so the
    // retry budget genuinely exhausts and a query resolves Failed with its
    // full rung history on record.
    {
      sim::FaultConfig pfc = fc;
      pfc.kernel_fault_rate = std::max(opt.fault_kernel, 0.3);
      sim::FaultInjector::global().configure(pfc);

      serve::ServeConfig pcfg = scfg;
      pcfg.slo_scope = "serve-chaos";
      pcfg.host_fallback = false;
      pcfg.max_attempts = 2;
      pcfg.cache_capacity = 0;
      pcfg.breaker_failure_threshold = 1000;
      pcfg.retry_backoff_ms = 0.0;
      serve::Server probe_server(g, pcfg);
      for (unsigned i = 0; i < 64 && failed_trace.empty(); ++i) {
        serve::Admission a = probe_server.submit(sources[i % sources.size()]);
        if (!a.accepted) continue;
        ++probe_submitted;
        const serve::QueryResult r = a.result.get();
        if (r.status == serve::QueryStatus::Failed) {
          ++probe_failed;
          if (r.trace != nullptr) failed_trace = r.trace->to_json("failed");
        }
      }
      probe_server.shutdown();
      sim::FaultInjector::global().configure(fc);
    }

    injected = sim::FaultInjector::global().total_injected();
    sim::FaultInjector::global().disable();

    p99_ratio = st.latency_p99_ms > 0.0 ? cst.latency_p99_ms / st.latency_p99_ms
                                        : 0.0;
    std::printf("chaos:  %llu completed (%llu expired, %llu rejected, %llu "
                "failed) in %.1f ms -> %.1f QPS\n",
                static_cast<unsigned long long>(crep.completed),
                static_cast<unsigned long long>(crep.expired),
                static_cast<unsigned long long>(crep.rejected),
                static_cast<unsigned long long>(cst.failed), crep.wall_ms,
                crep.qps);
    std::printf("        injected %llu  seen %llu  retries %llu  validation "
                "fail/pass %llu/%llu\n",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(cst.faults_seen),
                static_cast<unsigned long long>(cst.retries),
                static_cast<unsigned long long>(cst.validation_failures),
                static_cast<unsigned long long>(cst.validated_results));
    std::printf("        degraded %llu  host fallbacks %llu  rerouted %llu  "
                "timeouts %llu  breaker open/half/close %llu/%llu/%llu\n",
                static_cast<unsigned long long>(cst.degraded_queries),
                static_cast<unsigned long long>(cst.host_fallbacks),
                static_cast<unsigned long long>(cst.rerouted),
                static_cast<unsigned long long>(cst.dispatch_timeouts),
                static_cast<unsigned long long>(cst.breaker_opens),
                static_cast<unsigned long long>(cst.breaker_half_opens),
                static_cast<unsigned long long>(cst.breaker_closes));
    std::printf("        latency p99 %.3f ms vs clean %.3f ms -> %.2fx\n",
                cst.latency_p99_ms, st.latency_p99_ms, p99_ratio);
    std::printf("        probe: %llu submitted, %llu failed; exemplars "
                "degraded=%s failed=%s\n",
                static_cast<unsigned long long>(probe_submitted),
                static_cast<unsigned long long>(probe_failed),
                degraded_trace.empty() ? "missing" : "captured",
                failed_trace.empty() ? "missing" : "captured");
  }

  // Error-budget comparison across the two SLO scopes: the fault-free
  // phase must show zero burn, the chaos phase non-zero burn.
  obs::SloSnapshot slo_clean, slo_chaos;
  {
    const double now = obs::slo_now_ms();
    if (auto* s = obs::SloEngine::global().find("serve-clean")) {
      slo_clean = s->snapshot(now);
    }
    if (auto* s = obs::SloEngine::global().find("serve-chaos")) {
      slo_chaos = s->snapshot(now);
    }
    if (slo_clean.active) {
      std::printf("slo:    clean  good=%llu bad=%llu slow=%llu burn=%.3f "
                  "budget=%.3f\n",
                  static_cast<unsigned long long>(slo_clean.total_good),
                  static_cast<unsigned long long>(slo_clean.total_bad),
                  static_cast<unsigned long long>(slo_clean.total_slow),
                  slo_clean.window.burn_rate, slo_clean.budget_remaining);
    }
    if (slo_chaos.active) {
      std::printf("slo:    chaos  good=%llu bad=%llu slow=%llu burn=%.3f "
                  "budget=%.3f\n",
                  static_cast<unsigned long long>(slo_chaos.total_good),
                  static_cast<unsigned long long>(slo_chaos.total_bad),
                  static_cast<unsigned long long>(slo_chaos.total_slow),
                  slo_chaos.window.burn_rate, slo_chaos.budget_remaining);
    }
  }

  if (report.enabled()) {
    obs::RunRecord rec;
    rec.tool = "bench_serving";
    rec.algorithm = "bfs-serving-comparison";
    rec.n = g.num_vertices();
    rec.m = g.num_edges();
    rec.total_ms = lrep.wall_ms;
    char buf[32];
    auto f = [&](double v) {
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      return std::string(buf);
    };
    rec.config = {
        {"queries", std::to_string(opt.queries)},
        {"clients", std::to_string(opt.clients)},
        {"gcds", std::to_string(opt.gcds)},
        {"loop", opt.open_qps > 0.0 ? "open" : "closed"},
        {"naive_queries", std::to_string(naive_n)},
        {"naive_qps", f(naive_qps)},
        {"served_qps", f(lrep.qps)},
        {"speedup", f(speedup)},
    };
    report.add(std::move(rec));
  }
  if (report.enabled() && opt.chaos) {
    obs::RunRecord rec;
    rec.tool = "bench_serving-chaos";
    rec.algorithm = "bfs-serving-chaos";
    rec.n = g.num_vertices();
    rec.m = g.num_edges();
    rec.total_ms = crep.wall_ms;
    char buf[32];
    auto f = [&](double v) {
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      return std::string(buf);
    };
    rec.config = {
        {"queries", std::to_string(opt.queries)},
        {"fault_kernel", f(opt.fault_kernel)},
        {"fault_memcpy", f(opt.fault_memcpy)},
        {"fault_stall", f(opt.fault_stall)},
        {"fault_seed", std::to_string(opt.fault_seed)},
        {"injected", std::to_string(injected)},
        {"completed", std::to_string(cst.completed)},
        {"failed", std::to_string(cst.failed)},
        {"faults_seen", std::to_string(cst.faults_seen)},
        {"retries", std::to_string(cst.retries)},
        {"validation_failures", std::to_string(cst.validation_failures)},
        {"validated_results", std::to_string(cst.validated_results)},
        {"degraded_queries", std::to_string(cst.degraded_queries)},
        {"host_fallbacks", std::to_string(cst.host_fallbacks)},
        {"breaker_opens", std::to_string(cst.breaker_opens)},
        {"p99_clean_ms", f(st.latency_p99_ms)},
        {"p99_chaos_ms", f(cst.latency_p99_ms)},
        {"p99_ratio", f(p99_ratio)},
        {"probe_submitted", std::to_string(probe_submitted)},
        {"probe_failed", std::to_string(probe_failed)},
        // Exemplar per-query traces ("xbfs-query-trace" JSON); RunRecord
        // values are escaped, so these round-trip through json.loads.
        {"degraded_trace", degraded_trace},
        {"failed_trace", failed_trace},
        {"slo_clean_bad", std::to_string(slo_clean.total_bad)},
        {"slo_clean_burn", f(slo_clean.window.burn_rate)},
        {"slo_clean_budget", f(slo_clean.budget_remaining)},
        {"slo_chaos_bad", std::to_string(slo_chaos.total_bad)},
        {"slo_chaos_burn", f(slo_chaos.window.burn_rate)},
        {"slo_chaos_budget", f(slo_chaos.budget_remaining)},
    };
    report.add(std::move(rec));
  }

  if (lrep.completed + lrep.expired + lrep.rejected != opt.queries) {
    std::fprintf(stderr, "lost queries: %llu+%llu+%llu != %zu\n",
                 static_cast<unsigned long long>(lrep.completed),
                 static_cast<unsigned long long>(lrep.expired),
                 static_cast<unsigned long long>(lrep.rejected), opt.queries);
    return 1;
  }
  if (opt.check > 0.0 && speedup < opt.check) {
    std::fprintf(stderr, "speedup %.2fx below required %.2fx\n", speedup,
                 opt.check);
    return 1;
  }
  if (opt.chaos) {
    if (crep.completed + crep.expired + crep.rejected != opt.queries) {
      std::fprintf(stderr, "chaos lost queries: %llu+%llu+%llu != %zu\n",
                   static_cast<unsigned long long>(crep.completed),
                   static_cast<unsigned long long>(crep.expired),
                   static_cast<unsigned long long>(crep.rejected),
                   opt.queries);
      return 1;
    }
    if (cst.failed != 0) {
      std::fprintf(stderr, "chaos: %llu queries resolved Failed\n",
                   static_cast<unsigned long long>(cst.failed));
      return 1;
    }
    if (opt.chaos_check > 0.0 && p99_ratio > opt.chaos_check) {
      std::fprintf(stderr, "chaos p99 inflation %.2fx above allowed %.2fx\n",
                   p99_ratio, opt.chaos_check);
      return 1;
    }
    // The exemplar hunt is deterministic given --fault-seed; an empty
    // exemplar means the tracing or ladder plumbing regressed.
    if (degraded_trace.empty() || failed_trace.empty()) {
      std::fprintf(stderr, "chaos: missing %s exemplar trace\n",
                   degraded_trace.empty() ? "degraded" : "failed");
      return 1;
    }
  }
  return 0;
}
