#include "serve/server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "algos/cc_engine.h"
#include "algos/engines.h"
#include "algos/multi_bfs.h"
#include "baseline/cpu_bfs.h"
#include "dyn/delta_ref.h"
#include "dyn/incremental_bfs.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "hipsim/device.h"
#include "hipsim/fault.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace xbfs::serve {

namespace {

/// Canonicalize a query so equivalent requests dedup and share cache
/// entries: whole-graph kinds pin source 0, and params irrelevant to the
/// kind are zeroed so they cannot split the params-hash.
core::AlgoQuery normalize_query(core::AlgoQuery q) {
  if (!core::algo_needs_source(q.algo)) q.source = 0;
  switch (q.algo) {
    case core::AlgoKind::Bfs:
    case core::AlgoKind::Bc:
    case core::AlgoKind::Cc:
    case core::AlgoKind::Scc:
      // Parameterless kinds: every AlgoParams field is ignored.
      q.params = core::AlgoParams{};
      break;
    case core::AlgoKind::KCore: {
      core::AlgoParams p;
      p.k = q.params.k;  // only k matters
      q.params = p;
      break;
    }
    case core::AlgoKind::Sssp:
      q.params.k = 0;  // k-core's field; weights/delta are SSSP's own
      break;
  }
  return q;
}

/// Comma-separated kind names (the `algos` summary key).
std::string algo_names(const std::vector<core::AlgoKind>& algos) {
  std::string out;
  for (const core::AlgoKind k : algos) {
    if (!out.empty()) out += ",";
    out += core::algo_kind_name(k);
  }
  return out;
}

/// Dynamic CC's device rung: lp-cc over the GCD's device mirror, with the
/// sync charged to the run as IncrementalBfs::run charges it.
class MirrorCc final : public core::AlgorithmEngine {
 public:
  explicit MirrorCc(dyn::DeviceMirror& mirror)
      : mirror_(mirror), lp_(mirror.device(), mirror.csr()) {}

  core::AlgoKind kind() const override { return core::AlgoKind::Cc; }
  core::AlgoResult solve(const core::AlgoQuery& q) override {
    const double t0_us = mirror_.device().now_us();
    mirror_.sync();
    core::AlgoResult r = lp_.solve(q);
    r.total_ms = (mirror_.device().now_us() - t0_us) / 1000.0;
    mirror_.charge(r.total_ms);
    return r;
  }
  const char* name() const override { return lp_.name(); }
  core::EngineCapabilities capabilities() const override {
    return lp_.capabilities();
  }

 private:
  dyn::DeviceMirror& mirror_;
  algos::LpCcEngine lp_;
};

/// Fold one attempt's AttributionSink into a per-query rung record.
obs::RungAttribution make_rung(const sim::AttributionSink& sink,
                               std::string engine, const char* outcome,
                               unsigned gcd, unsigned attempt, unsigned rung,
                               unsigned shared, double start_us,
                               double end_us) {
  obs::RungAttribution a;
  a.engine = std::move(engine);
  a.outcome = outcome;
  a.gcd = gcd;
  a.attempt = attempt;
  a.rung = rung;
  a.shared_members = shared;
  a.launches = sink.launches;
  a.memcpys = sink.memcpys;
  a.fetch_bytes = sink.counters.fetch_bytes;
  a.bytes_read = sink.counters.bytes_read;
  a.atomics = sink.counters.atomics;
  const std::uint64_t accesses = sink.counters.l2_hits + sink.counters.l2_misses;
  a.l2_hit_pct =
      accesses == 0
          ? 0.0
          : 100.0 * static_cast<double>(sink.counters.l2_hits) /
                static_cast<double>(accesses);
  a.modelled_us = sink.modelled_us;
  a.wall_start_us = start_us;
  a.wall_dur_us = end_us - start_us;
  return a;
}

}  // namespace

xbfs::Status ServeConfig::validate() const {
  if (const xbfs::Status s = FrontEndConfig::validate(); !s.ok()) return s;
  if (num_gcds < 1) return xbfs::Status::Invalid("num_gcds must be >= 1");
  if (device_workers < 1) {
    return xbfs::Status::Invalid("device_workers must be >= 1");
  }
  if (max_batch < 1 || max_batch > algos::kMaxConcurrentSources) {
    return xbfs::Status::Invalid(
        "max_batch must be in [1, " +
        std::to_string(algos::kMaxConcurrentSources) + "], got " +
        std::to_string(max_batch));
  }
  if (min_sweep_sources < 1 ||
      min_sweep_sources > algos::kMaxConcurrentSources) {
    return xbfs::Status::Invalid(
        "min_sweep_sources must be in [1, " +
        std::to_string(algos::kMaxConcurrentSources) + "], got " +
        std::to_string(min_sweep_sources));
  }
  if (batch_window_ms < 0.0) {
    return xbfs::Status::Invalid("batch_window_ms must be >= 0");
  }
  if (algos.empty()) {
    return xbfs::Status::Invalid("algos must list at least one kind");
  }
  {
    bool seen[core::kNumAlgoKinds] = {};
    for (const core::AlgoKind k : algos) {
      const auto i = static_cast<std::size_t>(k);
      if (i >= core::kNumAlgoKinds) {
        return xbfs::Status::Invalid("algos contains an unknown kind");
      }
      if (seen[i]) {
        return xbfs::Status::Invalid(
            std::string("algos lists ") + core::algo_kind_name(k) + " twice");
      }
      seen[i] = true;
    }
  }
  return xbfs.validate();
}

Server::Server(const graph::Csr& g, ServeConfig cfg)
    : Server(&g, nullptr, std::move(cfg)) {}

Server::Server(dyn::GraphStore& store, ServeConfig cfg)
    : Server(nullptr, &store, std::move(cfg)) {}

Server::Server(const graph::Csr* g, dyn::GraphStore* store, ServeConfig cfg)
    : FrontEnd(checked(cfg, "ServeConfig"),
               // One scheduler thread; a cycle is a full sweep per GCD.
               Shape{.name = "server",
                     .prefix = "serve",
                     .lanes = cfg.num_gcds,
                     .qos_weights = cfg.qos_weights,
                     .threads = 1,
                     .pop_target = std::size_t{cfg.max_batch} * cfg.num_gcds,
                     .window_us = cfg.batch_window_ms * 1000.0,
                     .manual_pop = std::size_t{cfg.max_batch} * cfg.num_gcds,
                     .serialize_cycles = true}),
      host_g_(g),
      store_(store),
      cfg_(std::move(cfg)) {
  // The server reports one serving summary; per-query run records would
  // swamp XBFS_RUN_REPORT under load.
  cfg_.xbfs.report_runs = false;

  algos::register_builtin_engines();
  for (const core::AlgoKind k : cfg_.algos) {
    enabled_[static_cast<std::size_t>(k)] = true;
  }
  bfs_phash_ = bfs_params_hash();

  if (store_) {
    for (const core::AlgoKind k : cfg_.algos) {
      if (k != core::AlgoKind::Bfs && k != core::AlgoKind::Cc) {
        throw std::invalid_argument(
            std::string("ServeConfig: dynamic serving supports bfs (Xbfs) "
                        "and cc (lp-cc) over the delta mirror only, got ") +
            core::algo_kind_name(k));
      }
    }
    if (cfg_.require_durability && store_->durability() == nullptr) {
      throw std::invalid_argument(
          "ServeConfig: require_durability set but the GraphStore has no "
          "durability hook (use store::open_durable / recover_store)");
    }
    const dyn::Snapshot snap = store_->snapshot();
    n_vertices_ = snap.graph->num_vertices();
    graph_fp_.store(snap.fingerprint, std::memory_order_release);
    // Registers the serving fingerprint so the first epoch bump already
    // has a previous epoch to retire lazily.  On a recovered store this is
    // also the stale-result fence: every result the pre-crash process
    // handed out is keyed by a fingerprint that can no longer match.
    cache_.prime(snap.fingerprint);
    if (const dyn::DurabilityHook* hook = store_->durability()) {
      const dyn::DurabilityStats ds = hook->stats();
      if (ds.recovered) {
        obs::FlightRecorder::global().record(
            "serve", "recovered_store",
            ds.torn_tail_detected ? "torn tail truncated" : "clean tail",
            ds.recovered_epoch, ds.recovered_fingerprint,
            ds.wal_records_replayed);
      }
    }
  } else {
    if (cfg_.require_durability) {
      throw std::invalid_argument(
          "ServeConfig: require_durability is meaningless on a static "
          "server (no update lane, nothing to make durable)");
    }
    n_vertices_ = host_g_->num_vertices();
    graph_fp_.store(host_g_->fingerprint(), std::memory_order_release);
  }

  core::EngineRegistry& reg = core::EngineRegistry::global();
  gcds_.reserve(cfg_.num_gcds);
  for (unsigned i = 0; i < cfg_.num_gcds; ++i) {
    auto gcd = std::make_unique<Gcd>();
    gcd->dev = std::make_unique<sim::Device>(
        cfg_.profile,
        sim::SimOptions{.num_workers = cfg_.device_workers,
                        .profiling = cfg_.device_profiling});
    gcd->dev->set_trace_label("GCD " + std::to_string(i));
    gcd->dev->warmup();
    if (store_) {
      // Dynamic ladders: one device rung per kind, all over the GCD's one
      // mirror of the store (no static CSR upload).
      gcd->mirror = std::make_unique<dyn::DeviceMirror>(
          *gcd->dev, *store_, cfg_.xbfs.block_threads);
      for (const core::AlgoKind k : cfg_.algos) {
        std::unique_ptr<core::AlgorithmEngine> rung;
        if (k == core::AlgoKind::Bfs) {
          rung = std::make_unique<dyn::IncrementalBfs>(*gcd->mirror,
                                                       cfg_.xbfs);
        } else {
          rung = std::make_unique<MirrorCc>(*gcd->mirror);
        }
        gcd->ladders[static_cast<std::size_t>(k)].push_back(std::move(rung));
      }
    } else {
      gcd->dg = graph::DeviceCsr::upload(*gcd->dev, *host_g_);
      // Per-kind degradation ladders from the registry, fastest rung first
      // (for BFS: adaptive XBFS, then the simple-scan baseline — far fewer
      // kernel launches per traversal, so under a high kernel-fault rate it
      // has fewer chances to draw a fault while still on the device).
      const core::EngineContext ctx{.dev = gcd->dev.get(),
                                    .dg = &gcd->dg,
                                    .host_g = host_g_,
                                    .config = &cfg_.xbfs};
      for (const core::AlgoKind k : cfg_.algos) {
        gcd->ladders[static_cast<std::size_t>(k)] = reg.build_ladder(k, ctx);
      }
    }
    gcds_.push_back(std::move(gcd));
  }

  // Terminal rungs: one fault-immune host engine per kind.
  if (store_) {
    for (const core::AlgoKind k : cfg_.algos) {
      host_engines_[static_cast<std::size_t>(k)] =
          std::make_unique<dyn::HostDeltaEngine>(*store_, k);
    }
  } else {
    const core::EngineContext hctx{.host_g = host_g_};
    for (const core::AlgoKind k : cfg_.algos) {
      if (k == core::AlgoKind::Bfs) {
        // Serial mode: the serving fallback's historical engine (and the
        // name — "cpu-serial" — resilience tests assert on); the registry's
        // default cpu-bfs build is the parallel variant.
        host_engines_[static_cast<std::size_t>(k)] =
            std::make_unique<baseline::CpuBfsEngine>(
                *host_g_, baseline::CpuBfsEngine::Mode::Serial);
      } else {
        host_engines_[static_cast<std::size_t>(k)] = reg.build_host(k, hctx);
      }
    }
  }
  for (const core::AlgoKind k : cfg_.algos) {
    const auto i = static_cast<std::size_t>(k);
    if (gcds_[0]->ladders[i].empty() && host_engines_[i] == nullptr) {
      throw std::invalid_argument(
          std::string("ServeConfig: no engine registered for kind ") +
          core::algo_kind_name(k));
    }
  }

  // One pool lane per GCD (the scheduler thread participates as lane 0),
  // reusing the simulator's chunked-cursor worker pool.
  pool_ = std::make_unique<sim::ThreadPool>(cfg_.num_gcds);

  if (slo_ != nullptr) {
    // Per-kind scopes so objectives can differ per algorithm (a whole-graph
    // CC is allowed a slower p99 than a point BFS lookup).
    for (const core::AlgoKind k : cfg_.algos) {
      slo_by_algo_[static_cast<std::size_t>(k)] =
          &obs::SloEngine::global().scope(
              cfg_.slo_scope + ":" + core::algo_kind_name(k), cfg_.num_gcds);
    }
  }
  start();
}

Server::~Server() { shutdown(); }

Admission Server::submit(core::AlgoQuery q, QueryOptions opt) {
  return admit(normalize_query(q), opt);
}

UpdateAdmission Server::submit_update(const dyn::EdgeBatch& batch,
                                      UpdateOptions opt) {
  UpdateAdmission a;
  stat_.updates_submitted.add();
  if (!store_) {
    a.status = xbfs::Status::Invalid(
        "static server: graph updates need the GraphStore constructor");
    return a;
  }
  if (shut_down_.load(std::memory_order_acquire)) {
    a.status = xbfs::Status::ShuttingDown("server is shutting down");
    return a;
  }
  // The update lane has no default deadline: the query-side
  // default_timeout_ms is deliberately not inherited (dropping a write
  // because reads are slow is never what a caller means).
  const double deadline_us = resolve_deadline_us(opt.timeout_ms, -1.0,
                                                 wall_us());

  // Writes serialized per graph; reads are never blocked — the store
  // publishes a new snapshot while in-flight queries keep theirs, and the
  // fingerprint/cache flip below makes new submissions see the new epoch.
  std::lock_guard<sim::RankedMutex> lk(update_mu_);
  if (deadline_us >= 0.0 && wall_us() > deadline_us) {
    // The lane was contended past the caller's budget; reject *before*
    // applying so the graph does not move under a caller that gave up.
    stat_.updates_expired.add();
    a.status = xbfs::Status::DeadlineExceeded(
        "update waited past its " + obs::fmt_double(opt.timeout_ms) +
        " ms budget on the write lane");
    obs::FlightRecorder::global().record("dyn", "update_expired", {}, 0, 0,
                                         batch.size());
    return a;
  }
  if (cfg_.query_tracing) {
    a.trace = std::make_shared<obs::QueryTrace>(0, 0);
    a.trace->event(wall_us(), "update_submitted",
                   "ops=" + std::to_string(batch.size()));
  }
  // try_apply so a durability failure (torn WAL write, failed fsync) rejects
  // the batch with the fault status instead of throwing through the lane:
  // not-durable => not-visible, and the caller learns which it was.
  if (const xbfs::Status s = store_->try_apply(batch, &a.applied); !s.ok()) {
    stat_.updates_rejected_durability.add();
    a.status = s;
    if (a.trace) a.trace->event(wall_us(), "update_rejected", s.to_string());
    obs::FlightRecorder::global().record("dyn", "update_rejected", s.detail(),
                                         0, 0, batch.size());
    return a;
  }
  const dyn::Snapshot snap = store_->snapshot();
  a.epoch = snap.epoch;
  a.fingerprint = snap.fingerprint;
  graph_fp_.store(snap.fingerprint, std::memory_order_release);
  a.cache_purged = cache_.epoch_bump(snap.fingerprint);
  a.accepted = true;
  if (a.trace) {
    a.trace->event(
        wall_us(), "update_applied",
        "epoch=" + std::to_string(a.epoch) + " applied=" +
            std::to_string(a.applied.inserts_applied +
                           a.applied.deletes_applied) +
            " noops=" + std::to_string(a.applied.noops) +
            " purged=" + std::to_string(a.cache_purged));
  }
  obs::FlightRecorder::global().record(
      "dyn", "update", {}, 0, a.epoch,
      a.applied.inserts_applied + a.applied.deletes_applied);

  stat_.updates_applied.add();
  stat_.update_edges_applied.add(a.applied.inserts_applied +
                                 a.applied.deletes_applied);
  stat_.update_noops.add(a.applied.noops);
  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    tr.instant("serve.update", "serve", "serve", 0, wall_us(),
               {{"epoch", std::to_string(a.epoch), true},
                {"purged", std::to_string(a.cache_purged), true}});
  }
  return a;
}

bool Server::result_still_valid(std::uint64_t fingerprint) const {
  if (fingerprint == graph_fp_.load(std::memory_order_acquire)) return true;
  stat_.recovery_stale_rejected.add();
  return false;
}

void Server::execute(std::vector<PendingQuery>& live, double dispatch_us) {
  // Deduplicate: all queries agreeing on (algo, params, source) share one
  // engine run.  BFS keys additionally feed the batch/sweep machinery;
  // every other kind dispatches as its own unit.
  QueryMap by_key;
  std::vector<graph::vid_t> uniq;  // distinct BFS sources
  std::vector<DispatchKey> units;  // non-BFS dispatch units
  for (PendingQuery& p : live) {
    const DispatchKey key{p.query.algo, p.phash, p.source};
    auto& waiters = by_key[key];
    if (waiters.empty()) {
      if (p.query.algo == core::AlgoKind::Bfs) {
        uniq.push_back(p.source);
      } else {
        units.push_back(key);
      }
    }
    waiters.push_back(std::move(p));
  }

  std::vector<std::vector<graph::vid_t>> batches;
  if (dynamic()) {
    // One traversal per distinct source: the bit-parallel sweep and
    // neighborhood grouping both need the static CSR.
    for (const graph::vid_t s : uniq) batches.push_back({s});
  } else {
    if (uniq.size() > 1) {
      uniq = algos::group_sources(*host_g_, std::move(uniq), cfg_.max_batch);
    }
    for (std::size_t b = 0; b < uniq.size(); b += cfg_.max_batch) {
      const std::size_t e = std::min(b + cfg_.max_batch, uniq.size());
      if (e - b < cfg_.min_sweep_sources) {
        // Too narrow to amortize a sweep's fixed full-vertex-scan cost:
        // per-source adaptive runs, spread across the GCD lanes.
        for (std::size_t i = b; i < e; ++i) batches.push_back({uniq[i]});
      } else {
        batches.emplace_back(uniq.begin() + b, uniq.begin() + e);
      }
    }
  }

  const std::size_t n_bfs = batches.size();
  pool_->parallel_for(n_bfs + units.size(),
                      [&](unsigned worker, std::uint64_t bi) {
                        if (bi < n_bfs) {
                          run_batch(worker, batches[bi], by_key,
                                    dispatch_us);
                        } else {
                          run_algo(worker, units[bi - n_bfs], by_key,
                                   dispatch_us);
                        }
                      });
}

bool Server::note_dispatch_time(unsigned gcd, double dispatch_us) {
  if (cfg_.dispatch_timeout_ms < 0.0) return false;
  const double elapsed_ms = (wall_us() - dispatch_us) / 1000.0;
  if (elapsed_ms <= cfg_.dispatch_timeout_ms) return false;
  // Straggler: the work itself completed (the result is still used), but
  // the device blew its budget — report it unhealthy so the next dispatch
  // routes elsewhere while its breaker cools down.
  stat_.dispatch_timeouts.add();
  health_.record_failure(gcd, wall_us());
  return true;
}

std::string Server::validate_payload(const core::AlgoQuery& q,
                                     const CachedResult& res,
                                     const dyn::Snapshot& snap) const {
  // BFS and CC validators take either graph: the snapshot a dynamic run
  // served, else the static topology.
  const auto on_served = [&](const auto& validate) {
    return snap ? validate(*snap.graph) : validate(*host_g_);
  };
  switch (q.algo) {
    case core::AlgoKind::Bfs:
      if (!res.levels) return "bfs payload has no levels vector";
      return on_served([&](const auto& g) {
        return graph::validate_levels_graph500(g, q.source, *res.levels);
      });
    case core::AlgoKind::Cc:
      if (!res.components) return "cc payload has no components vector";
      return on_served([&](const auto& g) {
        return graph::validate_components(g, *res.components);
      });
    case core::AlgoKind::Sssp:
      if (!res.distances) return "sssp payload has no distances vector";
      return host_g_ ? graph::validate_sssp_distances(
                           *host_g_, q.source, *res.distances,
                           q.params.weight_seed, q.params.max_weight)
                     : std::string();
    case core::AlgoKind::KCore:
      if (!res.cores) return "kcore payload has no cores vector";
      return host_g_ ? graph::validate_kcore(*host_g_, *res.cores,
                                             q.params.k)
                     : std::string();
    case core::AlgoKind::Bc:
    case core::AlgoKind::Scc:
      // No partition/relaxation-style validator exists for these kinds;
      // payload_validatable() keeps them off the validation path.
      return {};
  }
  return {};
}

bool Server::payload_validatable(core::AlgoKind k) const {
  switch (k) {
    case core::AlgoKind::Bfs:
    case core::AlgoKind::Cc:
      return true;  // validators take the static or the dynamic graph
    case core::AlgoKind::Sssp:
    case core::AlgoKind::KCore:
      return host_g_ != nullptr;  // validators need the static topology
    case core::AlgoKind::Bc:
    case core::AlgoKind::Scc:
      return false;
  }
  return false;
}

Server::Tried Server::attempt(Attempt& a) {
  obs::QueryTrace* log = a.log;
  const unsigned g = health_.pick(a.preferred, wall_us());
  if (g == HealthTracker::kNone) return Tried::NoDevice;
  if (g != a.preferred) fstat_.rerouted.add();
  if (a.attempts > 0) fstat_.retries.add();
  ++a.attempts;
  Gcd& gcd = *gcds_[g];
  const double attempt_us = wall_us();
  if (log) {
    log->event(attempt_us, "attempt",
               "engine=" + a.engine + " gcd=" + std::to_string(g) + " " +
                   a.where + " attempt=" + std::to_string(a.attempts));
  }
  // Declared outside the try: a faulted run keeps the partial counters it
  // accumulated before the fault (the faulted launch itself attributes
  // nothing — hipsim throws before executing it).
  sim::AttributionSink sink;
  const auto fail = [&](const xbfs::Status& why, const char* event,
                        const std::string& detail) {
    a.last = note_attempt_failure(g, why, a.primary);
    const bool corrupt = why == xbfs::StatusCode::DataCorruption;
    if (log) {
      log->event(wall_us(), event, detail);
      const char* outcome = corrupt ? "corrupt"
                            : why == xbfs::StatusCode::FaultInjected
                                ? "fault"
                                : "error";
      log->rung(make_rung(sink, a.engine, outcome, g, a.attempts, a.rung,
                          a.members, attempt_us, wall_us()));
    }
    if (corrupt) obs::FlightRecorder::global().trigger("validation_failure");
    backoff(a.attempts);
    return Tried::Failed;
  };
  try {
    bool corrupted = false;
    std::uint64_t copies = 0;
    {
      std::lock_guard<sim::RankedMutex> lk(gcd.mu);
      sim::ScopedAttribution attr(*gcd.dev, sink);
      a.run(gcd);
      corrupted = gcd.dev->take_pending_corruption();
      // The device counters are plain fields; read them only while holding
      // the device (rerouted lanes mutate them concurrently).
      if (corrupted) copies = gcd.dev->corrupted_copies();
    }
    if (corrupted && !a.corrupt(copies)) {
      return fail(xbfs::Status::Corruption("transfer corruption pending on " +
                                           a.engine),
                  "corrupted", a.engine);
    }
    if (a.validate) {
      const std::string verr = a.check();
      if (!verr.empty()) {
        return fail(xbfs::Status::Corruption(verr), "validation_failed", verr);
      }
      fstat_.validated_results.add(a.members);
      if (log) log->event(wall_us(), "validated");
    }
  } catch (const sim::FaultInjected& e) {
    return fail(xbfs::Status::Fault(e.what()), "fault", e.what());
  } catch (const std::exception& e) {
    return fail(xbfs::Status::Internal(e.what()), "error", e.what());
  }
  // A straggler keeps its result but eats a breaker failure instead of a
  // success (which would reset the failure streak).
  if (!note_dispatch_time(g, a.dispatch_us)) health_.record_success(g);
  a.gcd = g;
  if (log) {
    log->rung(make_rung(sink, a.engine, "ok", g, a.attempts, a.rung,
                        a.members, attempt_us, wall_us()));
    log->event(wall_us(), "resolved",
               "engine=" + a.engine + " gcd=" + std::to_string(g));
  }
  return Tried::Served;
}

Server::Resolution Server::resolve_query(unsigned preferred,
                                         const core::AlgoQuery& q,
                                         unsigned attempts_so_far,
                                         double dispatch_us,
                                         QueryId primary) {
  const auto kidx = static_cast<std::size_t>(q.algo);
  const bool bfs = q.algo == core::AlgoKind::Bfs;
  Resolution out;
  out.gcd = preferred;
  if (cfg_.query_tracing) {
    out.log = std::make_shared<obs::QueryTrace>(primary, q.source);
  }
  obs::QueryTrace* log = out.log.get();
  const bool validate = validation_active() && payload_validatable(q.algo);
  const std::size_t rungs = gcds_[0]->ladders[kidx].size();

  // SLO-aware proactive degrade: when the error budget is exhausted (or
  // the window burn runs past burn_fast), start on the cheaper rung
  // instead of spending device attempts the objective can't afford.
  std::size_t start_rung = 0;
  if (slo_ != nullptr && rungs > 1 && slo_->prefer_cheap(obs::slo_now_ms())) {
    start_rung = 1;
    stat_.slo_proactive_degrades.add();
    if (log) log->event(wall_us(), "slo_degrade", "start_rung=1");
    obs::FlightRecorder::global().record("serve", "slo_degrade", {}, primary,
                                         preferred);
  }

  Attempt a{.preferred = preferred,
            .log = log,
            .primary = primary,
            .dispatch_us = dispatch_us,
            .validate = validate,
            .attempts = attempts_so_far};
  core::AlgoResult ar;
  dyn::Snapshot dsnap;
  a.corrupt = [&](std::uint64_t) {
    if (!bfs || !ar.payload.levels) return false;
    std::vector<std::int32_t> lv = *ar.payload.levels;
    sim::FaultInjector::global().corrupt_levels(lv);
    ar.payload.levels =
        std::make_shared<const std::vector<std::int32_t>>(std::move(lv));
    return true;
  };
  a.check = [&] { return validate_payload(q, ar.payload, dsnap); };
  unsigned budget = cfg_.max_attempts;
  for (std::size_t rung = start_rung; rung < rungs && budget > 0; ++rung) {
    // Every GCD builds the same ladder, so rung names agree across lanes.
    a.engine = gcds_[0]->ladders[kidx][rung]->name();
    a.where = "rung=" + std::to_string(rung);
    a.rung = static_cast<unsigned>(rung);
    a.run = [&](Gcd& gcd) {
      ar = gcd.ladders[kidx][rung]->solve(q);
      // Dynamic: pin the exact snapshot this run used (still under the GCD
      // lock — served() follows solve()'s serialization) so validation and
      // the cache key match the graph that was served, not whatever epoch
      // the store is on by now.
      dsnap = {};
      if (gcd.mirror) {
        dsnap = gcd.mirror->served();
        if (log) {
          log->event(wall_us(), "recompute",
                     "epoch=" + std::to_string(dsnap.epoch));
        }
      }
    };
    for (; budget > 0; --budget) {
      const Tried t = attempt(a);
      if (t == Tried::NoDevice) {
        a.last = xbfs::Status::Unavailable("all GCD circuit breakers open");
        if (log) log->event(wall_us(), "unavailable", "all breakers open");
        budget = 0;
        break;
      }
      if (t == Tried::Failed) continue;
      out.res = std::move(ar.payload);
      out.modelled_ms = ar.total_ms;
      out.engine = a.engine;
      out.gcd = a.gcd;
      out.attempts = a.attempts;
      out.fp = dsnap ? dsnap.fingerprint : fingerprint();
      // Degraded: a failed sweep preceded this, or we are below rung 0.
      out.degraded = attempts_so_far > 0 || rung > 0;
      out.validated = validate;
      out.status = xbfs::Status::Ok();
      return out;
    }
  }
  out.attempts = a.attempts;

  core::AlgorithmEngine* host = host_engines_[kidx].get();
  if (cfg_.host_fallback && host != nullptr) {
    // Terminal rung: the host CPU engine never touches the simulated
    // device, so no injected fault can reach it.  Dynamic servers pin one
    // snapshot so the traversal, validation and cache key agree even if an
    // update lands mid-run.
    const double host_us = wall_us();
    if (log) {
      log->event(host_us, "host_fallback",
                 "engine=" + std::string(host->name()));
    }
    dyn::Snapshot hsnap;
    core::ResultPayload payload;
    if (store_) {
      hsnap = store_->snapshot();
      payload = static_cast<const dyn::HostDeltaEngine*>(host)
                    ->solve_on(hsnap, q)
                    .payload;
    } else {
      payload = host->solve(q).payload;
    }
    stat_.host_fallbacks.add();
    if (validate) {
      const std::string verr = validate_payload(q, payload, hsnap);
      if (!verr.empty()) {
        // Cannot happen short of a bug in the host engine itself; report
        // rather than serve a wrong answer.
        out.status = xbfs::Status::Internal(
            "host fallback failed validation: " + verr);
        if (log) log->event(wall_us(), "validation_failed", verr);
        return out;
      }
      fstat_.validated_results.add();
    }
    out.res = std::move(payload);
    out.engine = host->name();
    out.degraded = true;
    out.validated = validate;
    out.status = xbfs::Status::Ok();
    out.fp = hsnap ? hsnap.fingerprint
                   : fingerprint();
    if (log) {
      // The host rung runs no simulated device work, so its attribution
      // record is all-zero counters — rung index one past the ladder.
      obs::RungAttribution ha;
      ha.engine = out.engine;
      ha.gcd = out.gcd;
      ha.attempt = out.attempts;
      ha.rung = static_cast<unsigned>(rungs);
      ha.wall_start_us = host_us;
      ha.wall_dur_us = wall_us() - host_us;
      log->rung(std::move(ha));
      log->event(wall_us(), "resolved", "engine=" + out.engine);
    }
    return out;
  }

  out.status = a.last;
  if (log) log->event(wall_us(), "exhausted", a.last.to_string());
  obs::FlightRecorder::global().record("serve", "budget_exhausted",
                                       xbfs::status_code_name(a.last.code()),
                                       primary, preferred);
  return out;
}

void Server::deliver_unit(const DispatchKey& key, const Resolution& res,
                          QueryMap& by_key, double dispatch_us,
                          unsigned batch_size,
                          const obs::QueryTrace* batch_log) {
  auto waiters = by_key.find(key);
  if (waiters == by_key.end()) return;
  const double complete_us = wall_us();

  bool published = false;
  if (res.res) {
    stat_.computed_sources.add();
    // Publish before resolving waiters so a submit racing with completion
    // can already hit.  When validation is active only validated results
    // are cacheable — a corrupted entry must never outlive its query.
    bool publish = !validation_active() || res.validated;
    bool wanted = false;
    for (const PendingQuery& p : waiters->second) wanted |= !p.bypass_cache;
    // Keyed under the fingerprint of the graph that actually produced the
    // result; on a dynamic server that may trail the live fingerprint, in
    // which case the entry is unreachable (and purged on the next bump)
    // rather than served stale.
    if (publish && wanted) {
      cache_.put(res.fp, key.algo, key.phash, key.source, res.res);
      published = true;
    }
  }

  for (PendingQuery& p : waiters->second) {
    if (p.trace) {
      // Batch-shared work first (sweep attempts), then this unit's own
      // resolution log; wall clocks keep the merged record ordered.
      if (batch_log != nullptr) p.trace->absorb(*batch_log);
      if (res.log != nullptr) p.trace->absorb(*res.log);
      if (published) {
        p.trace->event(complete_us, "cache_publish",
                       "fp=" + std::to_string(res.fp));
      }
    }
    QueryResult r;
    r.batch_size = batch_size;
    r.gcd = res.gcd;
    r.engine = res.engine;
    r.attempts = res.attempts;
    r.degraded = res.degraded;
    r.validated = res.validated;
    if (res.res) {
      r.status = QueryStatus::Completed;
      r.payload = res.res;
      r.levels = res.res.levels;
      r.depth = res.res.depth;
    } else {
      r.status = QueryStatus::Failed;
      r.error = res.status;
    }
    resolve(std::move(p), std::move(r), dispatch_us, complete_us);
  }
}

void Server::run_batch(unsigned worker,
                       const std::vector<graph::vid_t>& batch,
                       QueryMap& by_key, double dispatch_us) {
  const bool singleton = batch.size() == 1;
  stat_.sweeps.add();
  if (singleton) stat_.singleton_sweeps.add();

  // Batch-shared scratch trace: sweep-stage events and attribution,
  // absorbed into every member's QueryTrace at delivery (shared_members
  // marks work amortized across the whole batch).
  obs::QueryTracePtr batch_log;
  if (cfg_.query_tracing && !singleton) {
    batch_log = std::make_shared<obs::QueryTrace>(0, batch[0]);
  }

  // Stage 1: the shared 64-way sweep, retried across healthy GCDs.  One
  // corrupted or faulted attempt fails the whole unit; per-source
  // resolution below is the degradation path.
  const auto members = static_cast<unsigned>(batch.size());
  algos::MultiBfsResult r;
  Attempt a{.preferred = worker,
            .log = batch_log.get(),
            .dispatch_us = dispatch_us,
            .engine = "sweep",
            .where = "members=" + std::to_string(members),
            .members = members,
            .validate = validation_active()};
  a.run = [&](Gcd& gcd) {
    r = algos::multi_source_bfs(*gcd.dev, gcd.dg, batch);
  };
  // One deterministic source's levels carry the corruption.
  a.corrupt = [&](std::uint64_t copies) {
    sim::FaultInjector::global().corrupt_levels(r.levels[copies % members]);
    return true;
  };
  a.check = [&] {
    std::string verr;
    for (std::size_t i = 0; i < batch.size() && verr.empty(); ++i) {
      verr = graph::validate_levels_graph500(*host_g_, batch[i], r.levels[i]);
    }
    return verr;
  };
  bool swept = false;
  while (!singleton && !swept && a.attempts < cfg_.max_attempts) {
    const Tried t = attempt(a);
    if (t == Tried::NoDevice) break;
    swept = t == Tried::Served;
  }

  std::vector<Resolution> outcomes(batch.size());
  double modelled_ms = swept ? r.total_ms : 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Resolution& o = outcomes[i];
    if (swept) {
      std::int32_t max_level = 0;
      for (const std::int32_t lv : r.levels[i]) {
        max_level = std::max(max_level, lv);
      }
      o.res.kind = core::AlgoKind::Bfs;
      o.res.levels = std::make_shared<const std::vector<std::int32_t>>(
          std::move(r.levels[i]));
      // Same convention as every TraversalEngine: number of BFS levels
      // run, i.e. deepest reached level + 1.
      o.res.depth = static_cast<std::uint32_t>(max_level) + 1;
      o.engine = a.engine;
      o.attempts = a.attempts;
      o.gcd = a.gcd;
      o.validated = a.validate;
      o.status = xbfs::Status::Ok();
      o.fp = fingerprint();
      continue;
    }
    // Stage 2: per-source resolution through the BFS engine ladder (also
    // the normal path for singleton batches, where ladder[0] is exactly
    // the adaptive Xbfs run).
    const DispatchKey key{core::AlgoKind::Bfs, bfs_phash_, batch[i]};
    const auto w = by_key.find(key);
    const QueryId primary =
        (w != by_key.end() && !w->second.empty()) ? w->second.front().id : 0;
    core::AlgoQuery q;
    q.algo = core::AlgoKind::Bfs;
    q.source = batch[i];
    o = resolve_query(worker, q, a.attempts, dispatch_us, primary);
    modelled_ms += o.modelled_ms;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    deliver_unit(DispatchKey{core::AlgoKind::Bfs, bfs_phash_, batch[i]},
                 outcomes[i], by_key, dispatch_us,
                 static_cast<unsigned>(batch.size()), batch_log.get());
  }

  stat_.occupancy.observe(static_cast<double>(batch.size()) / cfg_.max_batch);
  stat_.sweep_sources.observe(static_cast<double>(batch.size()));
  observe_modelled(modelled_ms);
}

void Server::run_algo(unsigned worker, const DispatchKey& key,
                      QueryMap& by_key, double dispatch_us) {
  stat_.algo_dispatches.add();
  const auto w = by_key.find(key);
  if (w == by_key.end() || w->second.empty()) return;
  // The dedup representative: every waiter under this key agrees on
  // (algo, params-hash, source), so the front query stands for all.
  const core::AlgoQuery q = w->second.front().query;
  const QueryId primary = w->second.front().id;

  Resolution res = resolve_query(worker, q, 0, dispatch_us, primary);
  observe_modelled(res.modelled_ms);
  deliver_unit(key, res, by_key, dispatch_us, /*batch_size=*/1, nullptr);
}

ServerStats Server::stats() const {
  ServerStats s;
  static_cast<FrontEndStats&>(s) = front_stats();
  for (std::size_t k = 0; k < core::kNumAlgoKinds; ++k) {
    s.per_algo[k] =
        algo_stats(static_cast<core::AlgoKind>(k), s.wall_elapsed_ms);
  }
  const Handles& c = stat_;
  const ResultCache::Stats cs = cache_.stats();
  const dyn::DurabilityHook* hook = store_ ? store_->durability() : nullptr;
  const dyn::DurabilityStats ds = hook ? hook->stats() : dyn::DurabilityStats();
  std::uint64_t recomputes = 0;
  for (const auto& gp : gcds_) {
    if (gp->mirror) recomputes += gp->mirror->stats().runs;
  }
  XBFS_STAT_LOAD(XBFS_SERVER_STATS)
  return s;
}

dyn::DynEngineStats Server::mirror_stats(unsigned gcd) const {
  const dyn::DeviceMirror* m = gcds_.at(gcd)->mirror.get();
  return m ? m->stats() : dyn::DynEngineStats{};
}

void Server::summarize(obs::RunRecord& r) const {
  r.tool = "serve";
  // The historical record name for BFS-only servers; mixed-family servers
  // say so (run-report consumers key off `tool` either way).
  r.algorithm =
      cfg_.algos.size() == 1 && cfg_.algos[0] == core::AlgoKind::Bfs
          ? "bfs-serving"
          : "family-serving";
  if (store_) {
    const dyn::Snapshot snap = store_->snapshot();
    r.n = snap.graph->num_vertices();
    r.m = snap.graph->num_edges();
  } else {
    r.n = host_g_->num_vertices();
    r.m = host_g_->num_edges();
  }
  const ServerStats st = stats();
  {
    const ServerStats& s = st;
    const Handles& c = stat_;
    const obs::StatExport f(r, "serve");
    XBFS_STAT_VISIT(XBFS_SERVER_STATS)
  }
  // Per-kind serving columns, one block per served algorithm.
  for (const core::AlgoKind k : cfg_.algos) {
    const AlgoClassStats& s = st.per_algo[static_cast<std::size_t>(k)];
    const AlgoHandles& c = algo_stat_[static_cast<std::size_t>(k)];
    const obs::StatExport f(r, "serve",
                            std::string(core::algo_kind_name(k)) + "_");
    XBFS_STAT_VISIT(XBFS_ALGO_CLASS_STATS)
  }
}

}  // namespace xbfs::serve
