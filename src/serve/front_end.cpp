#include "serve/front_end.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <sstream>
#include <utility>

#include "hipsim/fault.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/trace.h"

namespace xbfs::serve {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

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
  if (cache_shards < 1) {
    return xbfs::Status::Invalid("cache_shards must be >= 1");
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
      cache_(cfg.cache_capacity, cfg.cache_shards),
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
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (kidx < core::kNumAlgoKinds) {
    submitted_by_algo_[kidx].fetch_add(1, std::memory_order_relaxed);
  }

  if (shut_down_.load(std::memory_order_acquire)) {
    a.status = xbfs::Status::ShuttingDown(std::string(shape_.name) +
                                          " is shutting down");
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return a;
  }
  if (kidx >= core::kNumAlgoKinds || !enabled_[kidx]) {
    a.status = xbfs::Status::Invalid(
        std::string("algorithm kind ") +
        (kidx < core::kNumAlgoKinds ? core::algo_kind_name(q.algo) : "?") +
        " is not served");
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    return a;
  }
  if (core::algo_needs_source(q.algo) && q.source >= n_vertices_) {
    a.status = xbfs::Status::Invalid(
        "source " + std::to_string(q.source) + " >= |V| = " +
        std::to_string(n_vertices_));
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
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
      detail += " deadline_ms=" + fmt_double((p.deadline_us - now) / 1000.0);
    }
    p.trace->event(now, "admitted", std::move(detail));
  }
  std::future<QueryResult> fut = p.promise.get_future();

  // Cache fast path: resolve without ever touching the queue.
  if (cache_.enabled() && !opt.bypass_cache) {
    if (CachedResult hit =
            cache_.get(fingerprint(), q.algo, p.phash, q.source)) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
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
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<sim::RankedMutex> lk(inflight_mu_);
    inflight_.erase(a.id);
    a.status = std::move(st);
    return a;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
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
  const std::uint64_t cycle =
      dispatch_cycles_.fetch_add(1, std::memory_order_relaxed) + 1;
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
      expired_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
      if (mx.enabled()) mx.counter(metric("expired")).add();
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
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  cache_hits_by_algo_[static_cast<std::size_t>(r.algo)].fetch_add(
      1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
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
    if (r.degraded) degraded_queries_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    record_latency(r);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
    if (mx.enabled()) mx.counter(metric("failed")).add();
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
    traced_.fetch_add(1, std::memory_order_relaxed);
    std::string detail = "total_ms=" + fmt_double(r.total_ms);
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
  latency_ms_.observe(r.total_ms);
  queue_ms_.observe(r.queue_ms);
  const auto kidx = static_cast<std::size_t>(r.algo);
  latency_by_algo_[kidx].observe(r.total_ms);
  completed_by_algo_[kidx].fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.histogram(metric("latency_ms")).observe(r.total_ms);
    mx.histogram(metric("queue_ms")).observe(r.queue_ms);
    mx.counter(metric("completed")).add();
    if (r.cache_hit) mx.counter(metric("cache_hits")).add();
  }
}

void FrontEnd::observe_modelled(double ms) {
  if (ms > 0.0) modelled_ms_.observe(ms);
}

void FrontEnd::retire_one() {
  // The empty critical section orders the increment against drain()'s
  // predicate check, so the final retirement can't slip between a
  // drainer's check and its wait (lost wakeup).
  retired_.fetch_add(1, std::memory_order_release);
  { std::lock_guard<sim::RankedMutex> lk(drain_mu_); }
  drain_cv_.notify_all();
}

void FrontEnd::drain() {
  if (fcfg_.manual_dispatch) {
    while (retired_.load(std::memory_order_acquire) <
           accepted_.load(std::memory_order_acquire)) {
      if (dispatch_once() == 0) std::this_thread::yield();
    }
    return;
  }
  std::unique_lock<sim::RankedMutex> lk(drain_mu_);
  drain_cv_.wait(lk, [&] {
    return retired_.load(std::memory_order_acquire) >=
           accepted_.load(std::memory_order_acquire);
  });
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
  w.kv("accepted", accepted_.load(std::memory_order_relaxed));
  w.kv("retired", retired_.load(std::memory_order_relaxed));
  w.kv("graph_fp", fingerprint());
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
    faults_seen_.fetch_add(1, std::memory_order_relaxed);
  }
  if (corrupt) validation_failures_.fetch_add(1, std::memory_order_relaxed);
  health_.record_failure(slot, wall_us());
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.counter(metric("faults")).add();
    if (corrupt) mx.counter(metric("validation_failures")).add();
  }
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
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);

  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  const ResultCache::Stats cs = cache_.stats();
  s.cache_evictions = cs.evictions;
  s.cache_entries = cs.entries;
  s.cache_hit_rate = s.completed == 0
                         ? 0.0
                         : static_cast<double>(s.cache_hits) /
                               static_cast<double>(s.completed);

  s.dispatch_cycles = dispatch_cycles_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.faults_seen = faults_seen_.load(std::memory_order_relaxed);
  s.rerouted = rerouted_.load(std::memory_order_relaxed);
  s.validated_results = validated_results_.load(std::memory_order_relaxed);
  s.validation_failures =
      validation_failures_.load(std::memory_order_relaxed);
  s.degraded_queries = degraded_queries_.load(std::memory_order_relaxed);
  const HealthTracker::Counters hc = health_.counters();
  s.breaker_opens = hc.opens;
  s.breaker_half_opens = hc.half_opens;
  s.breaker_closes = hc.closes;

  s.traced_queries = traced_.load(std::memory_order_relaxed);
  if (slo_ != nullptr) s.slo = slo_->snapshot(obs::slo_now_ms());

  s.wall_elapsed_ms = wall_us() / 1000.0;
  s.qps = s.wall_elapsed_ms <= 0.0
              ? 0.0
              : static_cast<double>(s.completed) / (s.wall_elapsed_ms / 1000.0);
  s.modelled_units = modelled_ms_.count();
  s.modelled_p50_ms = modelled_ms_.percentile(0.50);
  s.modelled_p99_ms = modelled_ms_.percentile(0.99);
  s.latency_p50_ms = latency_ms_.percentile(0.50);
  s.latency_p95_ms = latency_ms_.percentile(0.95);
  s.latency_p99_ms = latency_ms_.percentile(0.99);
  s.latency_mean_ms = latency_ms_.mean();
  s.latency_max_ms = latency_ms_.max();
  s.queue_p50_ms = queue_ms_.percentile(0.50);
  s.queue_p99_ms = queue_ms_.percentile(0.99);
  return s;
}

AlgoClassStats FrontEnd::algo_stats(core::AlgoKind k,
                                    double wall_elapsed_ms) const {
  const auto i = static_cast<std::size_t>(k);
  AlgoClassStats a;
  a.submitted = submitted_by_algo_[i].load(std::memory_order_relaxed);
  a.completed = completed_by_algo_[i].load(std::memory_order_relaxed);
  a.cache_hits = cache_hits_by_algo_[i].load(std::memory_order_relaxed);
  a.queued = queue_.class_counters(k).depth;
  a.latency_p50_ms = latency_by_algo_[i].percentile(0.50);
  a.latency_p99_ms = latency_by_algo_[i].percentile(0.99);
  a.qps = wall_elapsed_ms <= 0.0 ? 0.0
                                 : static_cast<double>(a.completed) /
                                       (wall_elapsed_ms / 1000.0);
  return a;
}

void FrontEnd::emit_summary() {
  const FrontEndStats st = front_stats();
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.gauge(metric("qps")).set(st.qps);
    mx.gauge(metric("cache_hit_rate")).set(st.cache_hit_rate);
    mx.gauge(metric("breaker_opens"))
        .set(static_cast<double>(st.breaker_opens));
    mx.gauge(metric("retries")).set(static_cast<double>(st.retries));
  }

  obs::RunRecord r;
  r.source = -1;
  r.total_ms = st.wall_elapsed_ms;
  summarize(r);
  obs::ReportSession& rs = obs::ReportSession::global();
  if (!rs.enabled()) return;

  std::string slo_gcd_burns;
  for (const obs::SloWindow& wnd : st.slo.per_gcd) {
    if (!slo_gcd_burns.empty()) slo_gcd_burns += ",";
    slo_gcd_burns += fmt_double(wnd.burn_rate);
  }
  const std::pair<const char*, std::string> shared[] = {
      {"queue_capacity", std::to_string(fcfg_.queue_capacity)},
      {"cache_capacity", std::to_string(fcfg_.cache_capacity)},
      {"max_attempts", std::to_string(fcfg_.max_attempts)},
      {"submitted", std::to_string(st.submitted)},
      {"accepted", std::to_string(st.accepted)},
      {"completed", std::to_string(st.completed)},
      {"expired", std::to_string(st.expired)},
      {"failed", std::to_string(st.failed)},
      {"rejected_full", std::to_string(st.rejected_full)},
      {"rejected_invalid", std::to_string(st.rejected_invalid)},
      {"rejected_shutdown", std::to_string(st.rejected_shutdown)},
      {"cache_hits", std::to_string(st.cache_hits)},
      {"cache_hit_rate", fmt_double(st.cache_hit_rate)},
      {"cache_evictions", std::to_string(st.cache_evictions)},
      {"dispatch_cycles", std::to_string(st.dispatch_cycles)},
      {"retries", std::to_string(st.retries)},
      {"faults_seen", std::to_string(st.faults_seen)},
      {"rerouted", std::to_string(st.rerouted)},
      {"validated_results", std::to_string(st.validated_results)},
      {"validation_failures", std::to_string(st.validation_failures)},
      {"degraded_queries", std::to_string(st.degraded_queries)},
      {"breaker_opens", std::to_string(st.breaker_opens)},
      {"breaker_half_opens", std::to_string(st.breaker_half_opens)},
      {"breaker_closes", std::to_string(st.breaker_closes)},
      {"wall_elapsed_ms", fmt_double(st.wall_elapsed_ms)},
      {"qps", fmt_double(st.qps)},
      {"modelled_units", std::to_string(st.modelled_units)},
      {"modelled_p50_ms", fmt_double(st.modelled_p50_ms)},
      {"modelled_p99_ms", fmt_double(st.modelled_p99_ms)},
      {"p50_ms", fmt_double(st.latency_p50_ms)},
      {"p95_ms", fmt_double(st.latency_p95_ms)},
      {"p99_ms", fmt_double(st.latency_p99_ms)},
      {"mean_ms", fmt_double(st.latency_mean_ms)},
      {"max_ms", fmt_double(st.latency_max_ms)},
      {"queue_p50_ms", fmt_double(st.queue_p50_ms)},
      {"queue_p99_ms", fmt_double(st.queue_p99_ms)},
      {"query_tracing", fcfg_.query_tracing ? "1" : "0"},
      {"traced_queries", std::to_string(st.traced_queries)},
      {"slo_scope", fcfg_.slo_scope},
      {"slo_active", st.slo.active ? "1" : "0"},
      {"slo_good", std::to_string(st.slo.total_good)},
      {"slo_bad", std::to_string(st.slo.total_bad)},
      {"slo_slow", std::to_string(st.slo.total_slow)},
      {"slo_budget_remaining", fmt_double(st.slo.budget_remaining)},
      {"slo_budget_exhausted", st.slo.budget_exhausted ? "1" : "0"},
      {"slo_window_burn", fmt_double(st.slo.window.burn_rate)},
      {"slo_gcd_burns", slo_gcd_burns},
      {"flight_dumps", std::to_string(obs::FlightRecorder::global().dumps())},
  };
  for (const auto& [key, value] : shared) r.config.emplace_back(key, value);
  rs.add(std::move(r));
}

}  // namespace xbfs::serve
