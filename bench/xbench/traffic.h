// Open-loop and burst query traffic against any front end that returns a
// serve::Admission (serve::Server, shard::ShardRouter), timed from the
// bench's side: each query's latency runs from when it was *due*, so a
// generator stall is charged to the queries it delayed.
#pragma once

#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "harness.h"
#include "serve/query.h"

namespace xbench {

/// One query of a traffic phase, after it resolved.
struct Sent {
  xbfs::graph::vid_t source = 0;
  double due_s = 0.0;     ///< scheduled send time (now_s clock)
  double sent_s = 0.0;    ///< submit() entered
  double submit_s = 0.0;  ///< submit() duration
  bool accepted = false;
  xbfs::serve::QueryResult result;  ///< valid when accepted

  bool completed() const {
    return accepted && result.status == xbfs::serve::QueryStatus::Completed;
  }
  /// Due -> complete, ms.  result.total_ms is the server's enqueue ->
  /// complete time; enqueue happens inside submit().
  double latency_ms() const {
    return (sent_s - due_s) * 1e3 + result.total_ms;
  }
  double done_s() const { return sent_s + result.total_ms / 1e3; }
};

/// Submit `sources` at `rate` queries/s (rate <= 0: all due at once, a
/// burst), then wait for every accepted query.  Samples the thread count
/// once the front end is busy.
template <class Submit>
std::vector<Sent> send(const std::vector<xbfs::graph::vid_t>& sources,
                       double rate, ThreadWatch& threads, Submit&& submit) {
  std::vector<Sent> out(sources.size());
  std::vector<std::future<xbfs::serve::QueryResult>> futs(sources.size());
  const double t0 = now_s() + 1e-3;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    Sent& s = out[i];
    s.source = sources[i];
    s.due_s = rate > 0.0 ? t0 + static_cast<double>(i) / rate : t0;
    sleep_until_s(s.due_s);
    s.sent_s = now_s();
    xbfs::serve::Admission a = submit(s.source);
    s.submit_s = now_s() - s.sent_s;
    s.accepted = a.accepted;
    if (a.accepted) futs[i] = std::move(a.result);
    if (i == sources.size() / 2) threads.sample();
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (out[i].accepted) out[i].result = futs[i].get();
  }
  return out;
}

/// Queries of a phase that did not complete (rejected, expired, failed).
inline std::uint64_t failures(const std::vector<Sent>& phase) {
  std::uint64_t n = 0;
  for (const Sent& s : phase) n += s.completed() ? 0 : 1;
  return n;
}

/// Steady completion rate of a burst (queries/s).
inline double capacity(const std::vector<Sent>& burst) {
  std::vector<double> done;
  for (const Sent& s : burst) {
    if (s.completed()) done.push_back(s.done_s());
  }
  return steady_rate(std::move(done));
}

/// Record each query as a span (due -> complete) with its submit() call as
/// a child, one trace lane per query.
inline void record_query_spans(const std::vector<Sent>& phase,
                               const char* name) {
  Recorder& rec = Recorder::global();
  if (!rec.enabled()) return;
  for (const Sent& s : phase) {
    const std::uint64_t q = s.accepted ? s.result.id + 1 : 0;
    const int parent =
        rec.add(name, s.due_s, s.accepted ? s.done_s() : s.sent_s, -1, q);
    rec.add("serve.submit", s.sent_s, s.sent_s + s.submit_s, parent, q);
  }
}

/// Spot-check served BFS payloads: every `stride`-th completed query of
/// the phase against `check(source, levels)` (empty string = correct).
template <class Check>
void check_payloads(Ctx& ctx, const std::vector<Sent>& phase,
                    std::size_t stride, Check&& check) {
  std::size_t seen = 0;
  for (const Sent& s : phase) {
    if (!s.completed() || seen++ % stride != 0) continue;
    ScopedSpan span("validate", -1, s.result.id + 1);
    const std::string err =
        s.result.levels ? check(s.source, *s.result.levels) : "no levels";
    ctx.report.check(err.empty(), "served result for source " +
                                      std::to_string(s.source) + ": " + err);
  }
}

/// Front-end accounting (serve::ServerStats, shard::RouterStats): every
/// accepted query resolved, every submitted one was accepted or rejected.
template <class Stats>
void check_accounting(Ctx& ctx, const Stats& st, const char* front_end) {
  ctx.report.check(st.completed + st.expired + st.failed == st.accepted &&
                       st.accepted + st.rejected_full + st.rejected_invalid +
                               st.rejected_shutdown ==
                           st.submitted,
                   std::string(front_end) + " accounting does not balance");
}

/// Wall-clock rows every served workload reports from its latency phase.
void report_serving_layers(Ctx& ctx, const std::vector<Sent>& phase);

/// hipsim.wall_per_modelled over the rungs a phase's queries ran on.
void report_rung_ratio(Ctx& ctx, const std::vector<Sent>& phase);

/// Sum of the modelled device time attributed to a query's rungs (0 for a
/// cache hit), ms.
double modelled_query_ms(const xbfs::serve::QueryResult& r);

}  // namespace xbench
