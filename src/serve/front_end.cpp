#include "serve/front_end.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <sstream>
#include <utility>

#include "hipsim/fault.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/trace.h"

namespace xbfs::serve {

namespace {

/// Independent LRU shards of the result cache (lock striping).
constexpr unsigned kCacheShards = 8;

/// The per-lane window burn rates, comma-separated (summary slo_gcd_burns).
std::string slo_lane_burns(const obs::SloSnapshot& slo) {
  std::string out;
  for (const obs::SloWindow& w : slo.per_gcd) {
    if (!out.empty()) out += ",";
    out += obs::fmt_double(w.burn_rate);
  }
  return out;
}

}  // namespace

const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::Completed: return "completed";
    case QueryStatus::Expired: return "expired";
    case QueryStatus::Failed: return "failed";
  }
  return "?";
}

xbfs::Status FrontEndConfig::validate() const {
  if (queue_capacity < 1) {
    return xbfs::Status::Invalid("queue_capacity must be >= 1");
  }
  if (max_attempts < 1) {
    return xbfs::Status::Invalid("max_attempts must be >= 1");
  }
  if (retry_backoff_ms < 0.0 || retry_backoff_max_ms < 0.0) {
    return xbfs::Status::Invalid("retry backoffs must be >= 0");
  }
  if (breaker_failure_threshold < 1) {
    return xbfs::Status::Invalid("breaker_failure_threshold must be >= 1");
  }
  if (breaker_cooldown_ms < 0.0) {
    return xbfs::Status::Invalid("breaker_cooldown_ms must be >= 0");
  }
  return xbfs::Status::Ok();
}

FrontEnd::FrontEnd(const FrontEndConfig& cfg, const Shape& shape)
    : queue_(cfg.queue_capacity, shape.qos_weights),
      cache_(cfg.cache_capacity, kCacheShards),
      health_(shape.lanes, BreakerConfig{cfg.breaker_failure_threshold,
                                         cfg.breaker_cooldown_ms}),
      fcfg_(cfg),
      shape_(shape),
      epoch_(std::chrono::steady_clock::now()) {
  obs::SloEngine& slo_eng = obs::SloEngine::global();
  if (slo_eng.enabled()) slo_ = &slo_eng.scope(fcfg_.slo_scope, shape_.lanes);
}

FrontEnd::~FrontEnd() = default;

void FrontEnd::start() {
  flight_ctx_ = obs::FlightRecorder::global().register_context(
      std::string(shape_.name) + "[" + fcfg_.slo_scope + "]",
      [this] { return flight_context_json(); });
  if (fcfg_.manual_dispatch) return;
  threads_.reserve(shape_.threads);
  for (unsigned t = 0; t < shape_.threads; ++t) {
    threads_.emplace_back([this] { dispatch_loop(); });
  }
}

double FrontEnd::wall_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool FrontEnd::validation_active() const {
  switch (fcfg_.validate_results) {
    case ValidateResults::Always: return true;
    case ValidateResults::Never: return false;
    case ValidateResults::Auto: return sim::FaultInjector::global().enabled();
  }
  return false;
}

void FrontEnd::backoff(unsigned attempt) const {
  if (fcfg_.retry_backoff_ms <= 0.0) return;
  double ms = fcfg_.retry_backoff_ms;
  for (unsigned i = 1; i < attempt && ms < fcfg_.retry_backoff_max_ms; ++i) {
    ms *= 2.0;
  }
  ms = std::min(ms, fcfg_.retry_backoff_max_ms);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

Admission FrontEnd::submit(graph::vid_t source, QueryOptions opt) {
  core::AlgoQuery q;
  q.source = source;
  return admit(q, opt);
}

Admission FrontEnd::admit(const core::AlgoQuery& q, const QueryOptions& opt) {
  const auto kidx = static_cast<std::size_t>(q.algo);

  Admission a;
  a.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  fstat_.submitted.add();
  if (kidx < core::kNumAlgoKinds) algo_stat_[kidx].submitted.add();

  if (shut_down_.load(std::memory_order_acquire)) {
    a.status = xbfs::Status::ShuttingDown(std::string(shape_.name) +
                                          " is shutting down");
    fstat_.rejected_shutdown.add();
    return a;
  }
  if (kidx >= core::kNumAlgoKinds || !enabled_[kidx]) {
    a.status = xbfs::Status::Invalid(
        std::string("algorithm kind ") +
        (kidx < core::kNumAlgoKinds ? core::algo_kind_name(q.algo) : "?") +
        " is not served");
    fstat_.rejected_invalid.add();
    return a;
  }
  if (core::algo_needs_source(q.algo) && q.source >= n_vertices_) {
    a.status = xbfs::Status::Invalid(
        "source " + std::to_string(q.source) + " >= |V| = " +
        std::to_string(n_vertices_));
    fstat_.rejected_invalid.add();
    return a;
  }

  const double now = wall_us();
  PendingQuery p;
  p.id = a.id;
  p.query = q;
  p.source = q.source;
  p.phash = q.params.hash();
  p.bypass_cache = opt.bypass_cache;
  p.enqueue_us = now;
  p.deadline_us = resolve_deadline_us(opt.timeout_ms, fcfg_.default_timeout_ms,
                                      now);
  if (fcfg_.query_tracing) {
    p.trace = std::make_shared<obs::QueryTrace>(a.id, q.source);
    std::string detail = std::string("algo=") + core::algo_kind_name(q.algo) +
                         " source=" + std::to_string(q.source);
    if (p.deadline_us >= 0.0) {
      detail +=
          " deadline_ms=" + obs::fmt_double((p.deadline_us - now) / 1000.0);
    }
    p.trace->event(now, "admitted", std::move(detail));
  }
  std::future<QueryResult> fut = p.promise.get_future();

  // Cache fast path: resolve without ever touching the queue.
  if (cache_.enabled() && !opt.bypass_cache) {
    if (CachedResult hit =
            cache_.get(fingerprint(), q.algo, p.phash, q.source)) {
      fstat_.accepted.add();
      a.accepted = true;
      a.result = std::move(fut);
      const double hit_us = wall_us();
      QueryResult r = triage_result(p, hit_us);
      r.queue_ms = 0.0;  // never queued
      take_hit(r, std::move(hit), hit_us);
      finish_query(std::move(p), std::move(r));
      return a;
    }
  }

  // In flight before the push: a dispatch thread may retire it at once.
  {
    std::lock_guard<sim::RankedMutex> lk(inflight_mu_);
    inflight_.insert(a.id);
  }
  xbfs::Status st = queue_.try_push(std::move(p));
  if (!st.ok()) {
    if (st == xbfs::StatusCode::QueueFull) {
      fstat_.rejected_full.add();
    } else {
      fstat_.rejected_shutdown.add();
    }
    std::lock_guard<sim::RankedMutex> lk(inflight_mu_);
    inflight_.erase(a.id);
    a.status = std::move(st);
    return a;
  }
  fstat_.accepted.add();
  a.accepted = true;
  a.result = std::move(fut);
  return a;
}

void FrontEnd::dispatch_loop() {
  std::vector<PendingQuery> pending;
  for (;;) {
    pending.clear();
    if (queue_.pop_batch(pending, shape_.pop_target, shape_.window_us) == 0) {
      if (queue_.closed()) return;
      continue;
    }
    run_cycle(pending);
  }
}

std::size_t FrontEnd::dispatch_once() {
  std::vector<PendingQuery> popped;
  const std::size_t got = queue_.try_pop_batch(popped, shape_.manual_pop);
  for (std::size_t b = 0; b < got; b += shape_.pop_target) {
    const auto first = popped.begin() + static_cast<std::ptrdiff_t>(b);
    const auto n = static_cast<std::ptrdiff_t>(
        std::min<std::size_t>(shape_.pop_target, got - b));
    std::vector<PendingQuery> cycle(std::make_move_iterator(first),
                                    std::make_move_iterator(first + n));
    run_cycle(cycle);
  }
  return got;
}

void FrontEnd::run_cycle(std::vector<PendingQuery>& pending) {
  std::unique_lock<sim::RankedMutex> cycle_lock(cycle_mu_, std::defer_lock);
  if (shape_.serialize_cycles) cycle_lock.lock();
  obs::TraceSession& tr = obs::TraceSession::global();
  const std::uint64_t span =
      tr.begin(metric("cycle"), shape_.prefix, shape_.prefix);
  const std::uint64_t cycle = fstat_.dispatch_cycles.add();
  const double dispatch_us = wall_us();
  const std::size_t cycle_queries = pending.size();

  // Triage: expire past-deadline queries (reported, never dropped) and
  // serve queries whose key landed in the cache while they queued.
  std::vector<PendingQuery> live;
  live.reserve(pending.size());
  for (PendingQuery& p : pending) {
    if (p.deadline_us >= 0.0 && dispatch_us > p.deadline_us) {
      QueryResult r = triage_result(p, dispatch_us);
      r.status = QueryStatus::Expired;
      fstat_.expired.add();
      finish_query(std::move(p), std::move(r));
      continue;
    }
    if (cache_.enabled() && !p.bypass_cache) {
      if (CachedResult hit =
              cache_.get(fingerprint(), p.query.algo, p.phash, p.source)) {
        QueryResult r = triage_result(p, dispatch_us);
        take_hit(r, std::move(hit), dispatch_us);
        finish_query(std::move(p), std::move(r));
        continue;
      }
    }
    if (p.trace) {
      p.trace->event(dispatch_us, "dispatched",
                     "cycle=" + std::to_string(cycle));
    }
    live.push_back(std::move(p));
  }
  pending.clear();
  if (!live.empty()) execute(live, dispatch_us);

  if (span != 0) {
    tr.attr(span, "queries", static_cast<double>(cycle_queries));
    tr.end(span);
  }
}

QueryResult FrontEnd::triage_result(const PendingQuery& p,
                                    double now_us) const {
  QueryResult r;
  r.id = p.id;
  r.algo = p.query.algo;
  r.source = p.source;
  r.shards = shape_.shards;
  r.queue_ms = (now_us - p.enqueue_us) / 1000.0;
  r.total_ms = r.queue_ms;
  r.trace = p.trace;
  return r;
}

void FrontEnd::take_hit(QueryResult& r, CachedResult&& hit, double now_us) {
  r.status = QueryStatus::Completed;
  r.depth = hit.depth;
  r.levels = hit.levels;
  r.payload = std::move(hit);
  r.cache_hit = true;
  if (r.trace) {
    r.trace->event(now_us, "cache_hit", "depth=" + std::to_string(r.depth));
  }
  fstat_.cache_hits.add();
  algo_stat_[static_cast<std::size_t>(r.algo)].cache_hits.add();
  fstat_.completed.add();
  record_latency(r);
}

void FrontEnd::resolve(PendingQuery&& p, QueryResult&& r, double dispatch_us,
                       double complete_us) {
  r.id = p.id;
  r.algo = p.query.algo;
  r.source = p.source;
  r.shards = shape_.shards;
  r.queue_ms = (dispatch_us - p.enqueue_us) / 1000.0;
  r.service_ms = (complete_us - dispatch_us) / 1000.0;
  r.total_ms = (complete_us - p.enqueue_us) / 1000.0;
  if (r.status == QueryStatus::Completed) {
    if (r.degraded) fstat_.degraded_queries.add();
    fstat_.completed.add();
    record_latency(r);
  } else {
    fstat_.failed.add();
  }
  finish_query(std::move(p), std::move(r));
}

void FrontEnd::finish_query(PendingQuery&& p, QueryResult&& r) {
  if (p.trace != nullptr) r.trace = p.trace;
  note_terminal(r);
  {
    std::lock_guard<sim::RankedMutex> lk(inflight_mu_);
    inflight_.erase(p.id);
  }
  p.promise.set_value(std::move(r));
  retire_one();
}

void FrontEnd::note_terminal(QueryResult& r) {
  const bool ok = r.status == QueryStatus::Completed;
  // Cache hits and expiries never touched a device lane: r.batch_size is
  // 0 exactly when no traversal ran, and an out-of-range lane attributes
  // to the scope aggregate only.
  const unsigned lane = r.batch_size > 0 ? r.gcd : shape_.lanes;
  if (slo_ != nullptr) {
    slo_->record(lane, ok, r.total_ms, obs::slo_now_ms());
  }
  if (obs::SloScope* ks = slo_by_algo_[static_cast<std::size_t>(r.algo)]) {
    ks->record(lane, ok, r.total_ms, obs::slo_now_ms());
  }
  const char* status = query_status_name(r.status);
  if (r.trace != nullptr) {
    fstat_.traced_queries.add();
    std::string detail = "total_ms=" + obs::fmt_double(r.total_ms);
    if (!r.engine.empty()) detail += " engine=" + r.engine;
    if (r.cache_hit) detail += " cache_hit=1";
    if (r.shards_lost > 0) {
      detail += " shards_lost=" + std::to_string(r.shards_lost);
    }
    if (!ok && !r.error.ok()) detail += " error=" + r.error.to_string();
    r.trace->event(wall_us(), status, std::move(detail));
    obs::TraceSession& tr = obs::TraceSession::global();
    if (tr.enabled()) obs::emit_query_spans(tr, *r.trace, status);
  }
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  if (fr.enabled()) {
    const bool failed = r.status == QueryStatus::Failed;
    fr.record(shape_.prefix,
              ok ? "query_completed"
                 : failed ? "query_failed" : "query_expired",
              failed && !r.error.ok() ? r.error.to_string() : r.engine, r.id,
              r.gcd);
    // Post-mortem dumps on the escalations worth a snapshot: a query that
    // exhausted its resilience budget, and a deadline miss.
    if (failed) fr.trigger("query_failed");
    if (r.status == QueryStatus::Expired) fr.trigger("deadline_miss");
  }
}

void FrontEnd::record_latency(const QueryResult& r) {
  fstat_.latency_ms.observe(r.total_ms);
  fstat_.queue_ms.observe(r.queue_ms);
  AlgoHandles& k = algo_stat_[static_cast<std::size_t>(r.algo)];
  k.latency_ms.observe(r.total_ms);
  k.completed.add();
}

void FrontEnd::observe_modelled(double ms) {
  if (ms > 0.0) fstat_.modelled_ms.observe(ms);
}

void FrontEnd::retire_one() {
  {
    std::lock_guard<sim::RankedMutex> lk(drain_mu_);
    ++retired_;
  }
  drain_cv_.notify_all();
}

std::uint64_t FrontEnd::retired() const {
  std::lock_guard<sim::RankedMutex> lk(drain_mu_);
  return retired_;
}

void FrontEnd::drain() {
  if (fcfg_.manual_dispatch) {
    while (retired() < fstat_.accepted.value()) {
      if (dispatch_once() == 0) std::this_thread::yield();
    }
    return;
  }
  std::unique_lock<sim::RankedMutex> lk(drain_mu_);
  drain_cv_.wait(lk, [&] { return retired_ >= fstat_.accepted.value(); });
}

void FrontEnd::shutdown() {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.close();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  // Manual mode (and a safety net for races with close): retire leftovers.
  while (dispatch_once() != 0) {
  }
  // The context provider captures `this`; drop it before the members it
  // samples go away.
  if (flight_ctx_ != 0) {
    obs::FlightRecorder::global().unregister_context(flight_ctx_);
    flight_ctx_ = 0;
  }
  emit_summary();
}

std::string FrontEnd::flight_context_json() const {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("scope", fcfg_.slo_scope);
  w.kv("queue_depth", static_cast<std::uint64_t>(queue_.size()));
  w.kv("queue_capacity", static_cast<std::uint64_t>(queue_.capacity()));
  w.kv("retired", retired());
  w.kv("graph_fp", fingerprint());
  const Handles& c = fstat_;
  const auto f = [&w](const obs::StatDef& d, std::uint64_t v) {
    w.kv(d.key, v);
  };
  XBFS_STAT_VISIT_COUNTERS(XBFS_FRONT_END_STATS)
  w.key("breakers").begin_array();
  for (unsigned i = 0; i < shape_.lanes; ++i) {
    w.value(breaker_state_name(health_.state(i)));
  }
  w.end_array();
  w.key("inflight").begin_array();
  {
    std::lock_guard<sim::RankedMutex> lk(inflight_mu_);
    std::size_t emitted = 0;
    for (const QueryId id : inflight_) {
      if (++emitted > 64) break;  // cap the dump; the depth is above
      w.value(static_cast<std::uint64_t>(id));
    }
  }
  w.end_array();
  w.end_object();
  return os.str();
}

xbfs::Status FrontEnd::note_attempt_failure(unsigned slot,
                                            const xbfs::Status& why,
                                            QueryId primary) {
  obs::FlightRecorder::global().record(shape_.prefix, "attempt_failed",
                                       xbfs::status_code_name(why.code()),
                                       primary, slot);
  const bool corrupt = why == xbfs::StatusCode::DataCorruption;
  if (corrupt || why == xbfs::StatusCode::FaultInjected) {
    fstat_.faults_seen.add();
  }
  if (corrupt) fstat_.validation_failures.add();
  health_.record_failure(slot, wall_us());
  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    tr.instant(metric("fault"), shape_.prefix, shape_.prefix, 0, wall_us(),
               {{"gcd", std::to_string(slot), true},
                {"status", xbfs::status_code_name(why.code()), false}});
  }
  return why;
}

FrontEndStats FrontEnd::front_stats() const {
  FrontEndStats s;
  const Handles& c = fstat_;
  const ResultCache::Stats cs = cache_.stats();
  const HealthTracker::Counters hc = health_.counters();
  XBFS_STAT_LOAD(XBFS_FRONT_END_STATS)
  if (slo_ != nullptr) s.slo = slo_->snapshot(obs::slo_now_ms());
  return s;
}

AlgoClassStats FrontEnd::algo_stats(core::AlgoKind kind,
                                    double wall_elapsed_ms) const {
  AlgoClassStats s;
  const AlgoHandles& c = algo_stat_[static_cast<std::size_t>(kind)];
  XBFS_STAT_LOAD(XBFS_ALGO_CLASS_STATS)
  return s;
}

void FrontEnd::emit_summary() {
  const FrontEndStats s = front_stats();
  obs::RunRecord r;
  r.source = -1;
  r.total_ms = s.wall_elapsed_ms;
  summarize(r);
  const Handles& c = fstat_;
  const obs::StatExport f(r, shape_.prefix);
  XBFS_STAT_VISIT(XBFS_FRONT_END_STATS)
  obs::ReportSession& rs = obs::ReportSession::global();
  if (rs.enabled()) rs.add(std::move(r));
}

}  // namespace xbfs::serve
