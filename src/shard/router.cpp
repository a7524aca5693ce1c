#include "shard/router.h"

#include <mutex>
#include <string>
#include <utility>

#include "graph/g500_validate.h"
#include "hipsim/fault.h"

namespace xbfs::shard {

xbfs::Status RouterConfig::validate() const {
  if (const xbfs::Status s = FrontEndConfig::validate(); !s.ok()) return s;
  if (workers < 1) return xbfs::Status::Invalid("workers must be >= 1");
  return xbfs::Status::Ok();
}

ShardRouter::ShardRouter(ShardedStore& store, RouterConfig cfg)
    : FrontEnd(serve::checked(cfg, "RouterConfig"),
               // Each worker runs one query per cycle; dispatch_once drains
               // the whole queue that way.
               Shape{.name = "router",
                     .prefix = "shard",
                     .lanes = store.num_slots(),
                     .threads = cfg.workers,
                     .pop_target = 1,
                     .manual_pop = cfg.queue_capacity,
                     .shards = store.shards()}),
      store_(store),
      cfg_(std::move(cfg)),
      sweep_(store, cfg_.sweep) {
  enabled_[static_cast<std::size_t>(core::AlgoKind::Bfs)] = true;
  n_vertices_ = store_.graph().num_vertices();
  graph_fp_.store(graph::mix_fingerprint(store_.graph().fingerprint(),
                                         store_.fingerprint_salt()),
                  std::memory_order_release);
  if (slo_ != nullptr) {
    for (unsigned s = 0; s < store_.shards(); ++s) {
      for (unsigned r = 0; r < store_.replicas(); ++r) {
        std::string label(1, 's');
        label += std::to_string(s);
        label += 'r';
        label += std::to_string(r);
        slo_->label_lane(store_.slot(s, r), std::move(label));
      }
    }
  }
  start();
}

ShardRouter::~ShardRouter() { shutdown(); }

void ShardRouter::execute(std::vector<serve::PendingQuery>& live,
                          double dispatch_us) {
  for (serve::PendingQuery& p : live) process_query(std::move(p), dispatch_us);
}

unsigned ShardRouter::build_plan(serve::QueryId id, unsigned attempt,
                                 const std::vector<char>& excluded,
                                 std::vector<int>& plan,
                                 obs::QueryTrace* log) {
  const unsigned S = store_.shards();
  const unsigned R = store_.replicas();
  plan.assign(S, ShardSweep::kLost);
  unsigned lost = 0;
  std::vector<unsigned> group;
  for (unsigned s = 0; s < S; ++s) {
    group.clear();
    for (unsigned r = 0; r < R; ++r) {
      const unsigned sl = store_.slot(s, r);
      if (store_.alive(s, r) && !excluded[sl]) group.push_back(sl);
    }
    if (group.empty()) {
      // Exclusion is a soft preference: when this query has already seen a
      // fault on every live replica of the shard, retrying one (faults are
      // transient) beats degrading the whole shard to lost.
      for (unsigned r = 0; r < R; ++r) {
        if (store_.alive(s, r)) group.push_back(store_.slot(s, r));
      }
    }
    // Spread load across the replica row by query id; retries rotate the
    // preference so a re-plan naturally lands elsewhere first.
    const unsigned pref = store_.slot(s, static_cast<unsigned>(
                                             (id + attempt) % R));
    const unsigned got = health_.pick_in(group, pref, wall_us());
    if (got == serve::HealthTracker::kNone) {
      ++lost;
      if (log) log->event(wall_us(), "shard_lost", "shard=" + std::to_string(s));
      continue;
    }
    if (got != pref) {
      fstat_.rerouted.add();
      if (log) {
        log->event(wall_us(), "rerouted",
                   "shard=" + std::to_string(s) + " slot=" +
                       std::to_string(got));
      }
    }
    plan[s] = static_cast<int>(got - store_.slot(s, 0));
  }
  return lost;
}

void ShardRouter::process_query(serve::PendingQuery&& p,
                                double dispatch_us) {
  obs::QueryTrace* log = p.trace.get();
  const unsigned S = store_.shards();
  const unsigned owner = store_.layout().owner(p.source);
  const bool validate = validation_active();
  std::vector<char> excluded(store_.num_slots(), 0);
  xbfs::Status last = xbfs::Status::Unavailable("no sweep attempt made");
  std::vector<int> plan;

  for (unsigned attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    const unsigned lost = build_plan(p.id, attempt, excluded, plan, log);
    if (plan[owner] == ShardSweep::kLost) {
      last = xbfs::Status::Unavailable(
          "source shard " + std::to_string(owner) +
          " has no healthy replica");
      stat_.unavailable_failures.add();
      break;
    }
    if (lost > 0 && !cfg_.allow_partial) {
      last = xbfs::Status::Unavailable(
          std::to_string(lost) + " shard(s) have no healthy replica and "
          "partial results are disabled");
      stat_.unavailable_failures.add();
      break;
    }
    const unsigned primary = store_.slot(owner,
                                         static_cast<unsigned>(plan[owner]));
    if (attempt > 0) fstat_.retries.add();
    stat_.sweeps.add();

    // Chosen replicas locked in ascending slot order (plans are iterated
    // by shard, and slots grow with shard) — overlapping plans from
    // concurrent workers serialize instead of deadlocking.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(S);
    for (unsigned s = 0; s < S; ++s) {
      if (plan[s] == ShardSweep::kLost) continue;
      locks.emplace_back(
          store_.replica(s, static_cast<unsigned>(plan[s])).mu);
    }

    const double attempt_us = wall_us();
    if (log) {
      log->event(attempt_us, "attempt",
                 "engine=shard-sweep live=" + std::to_string(S - lost) +
                     " lost=" + std::to_string(lost) + " attempt=" +
                     std::to_string(attempt + 1));
    }
    try {
      ShardSweepResult sw = sweep_.run(p.source, plan);
      bool corrupted = false;
      unsigned corrupt_slot = primary;
      for (unsigned s = 0; s < S; ++s) {
        if (plan[s] == ShardSweep::kLost) continue;
        if (store_.replica(s, static_cast<unsigned>(plan[s]))
                .device->take_pending_corruption()) {
          corrupted = true;
          corrupt_slot = store_.slot(s, static_cast<unsigned>(plan[s]));
        }
      }
      locks.clear();
      if (corrupted) {
        // The modelled copy moved no real bytes; realize the corruption so
        // validation can see it.
        sim::FaultInjector::global().corrupt_levels(sw.levels);
      }
      if (validate && !sw.partial) {
        const std::string verr = graph::validate_levels_graph500(
            store_.graph(), p.source, sw.levels);
        if (!verr.empty()) {
          excluded[corrupt_slot] = 1;
          last = note_attempt_failure(corrupt_slot,
                                      xbfs::Status::Corruption(verr), p.id);
          if (log) log->event(wall_us(), "validation_failed", verr);
          backoff(attempt + 1);
          continue;
        }
        fstat_.validated_results.add();
        if (log) log->event(wall_us(), "validated");
      }
      for (unsigned s = 0; s < S; ++s) {
        if (plan[s] == ShardSweep::kLost) continue;
        health_.record_success(
            store_.slot(s, static_cast<unsigned>(plan[s])));
      }

      // --- exchange + timing accounting -----------------------------------
      stat_.levels_swept.add(sw.level_stats.size());
      std::uint64_t two = 0;
      for (const ShardLevelStats& st : sw.level_stats) two += st.two_phase;
      stat_.two_phase_levels.add(two);
      stat_.exchange_raw_bytes.add(sw.raw_bytes);
      stat_.exchange_wire_bytes.add(sw.wire_bytes);
      stat_.lost_shard_events.add(sw.shards_lost);
      stat_.sweep_comm_ms.observe(sw.comm_ms);
      observe_modelled(sw.total_ms);

      const double complete_us = wall_us();
      serve::QueryResult r;
      r.depth = sw.depth;
      r.batch_size = 1;
      r.gcd = primary;
      r.engine = "shard-sweep";
      r.attempts = attempt + 1;
      r.validated = validate && !sw.partial;
      r.shards_lost = sw.shards_lost;
      r.partial = sw.partial;
      r.degraded = sw.partial || attempt > 0;
      if (sw.partial) {
        r.error = xbfs::Status::Unavailable(
            std::to_string(sw.shards_lost) +
            " shard(s) had no healthy replica; their vertex ranges report "
            "-1");
        stat_.partial_queries.add();
        if (log) {
          log->event(complete_us, "partial",
                     "lost=" + std::to_string(sw.shards_lost));
        }
      }
      const bool publish = !sw.partial && !p.bypass_cache &&
                           (!validate || r.validated);
      serve::CachedResult payload;
      payload.kind = core::AlgoKind::Bfs;
      payload.levels = std::make_shared<const std::vector<std::int32_t>>(
          std::move(sw.levels));
      payload.depth = sw.depth;
      if (publish && cache_.enabled()) {
        cache_.put(fingerprint(), core::AlgoKind::Bfs, p.phash, p.source,
                   payload);
        if (log) {
          log->event(complete_us, "cache_publish",
                     "fp=" + std::to_string(fingerprint()));
        }
      }
      r.levels = payload.levels;
      r.payload = std::move(payload);
      if (log) {
        log->event(complete_us, "resolved",
                   "engine=shard-sweep slot=" + std::to_string(primary) +
                       " depth=" + std::to_string(r.depth));
      }
      resolve(std::move(p), std::move(r), dispatch_us, complete_us);
      return;
    } catch (const ShardSweepFault& f) {
      locks.clear();
      const unsigned slot = store_.slot(f.shard(), f.replica());
      excluded[slot] = 1;
      last = note_attempt_failure(slot, xbfs::Status::Fault(f.what()), p.id);
      if (log) {
        log->event(wall_us(), "fault",
                   "slot=s" + std::to_string(f.shard()) + "r" +
                       std::to_string(f.replica()) + " " + f.what());
      }
      backoff(attempt + 1);
    } catch (const std::exception& e) {
      last = xbfs::Status::Internal(e.what());
      if (log) log->event(wall_us(), "error", e.what());
      locks.clear();
      backoff(attempt + 1);
    }
  }

  // Every attempt burned (or the source shard is gone): terminal failure.
  const double complete_us = wall_us();
  if (log) log->event(complete_us, "exhausted", last.to_string());
  serve::QueryResult r;
  r.status = serve::QueryStatus::Failed;
  r.error = last;
  resolve(std::move(p), std::move(r), dispatch_us, complete_us);
}

RouterStats ShardRouter::stats() const {
  RouterStats s;
  static_cast<serve::FrontEndStats&>(s) = front_stats();
  const Handles& c = stat_;
  XBFS_STAT_LOAD(XBFS_ROUTER_STATS)
  return s;
}

void ShardRouter::summarize(obs::RunRecord& r) const {
  r.tool = "shard_router";
  r.algorithm = "sharded-bfs-serving";
  r.n = store_.graph().num_vertices();
  r.m = store_.graph().num_edges();
  const RouterStats s = stats();
  const Handles& c = stat_;
  const ShardMemoryReport mem = store_.memory_report();
  const obs::StatExport f(r, "shard");
  XBFS_STAT_VISIT(XBFS_ROUTER_STATS)
}

}  // namespace xbfs::shard
