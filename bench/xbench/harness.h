// xbench harness: metric rows, the correctness ledger, the bench-local span
// recorder and the small measurement helpers every workload shares.
//
// Every number xbench reports is one Row in the ledger schema
// {metric, value, unit, clock, layer, kind}.  End-to-end rows (kind "e2e")
// come from untraced measurement only; per-layer rows (kind "layer") come
// from a --trace run: report_wall's from its untraced pass, the rest from
// its traced pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace xbench {

enum class Kind { E2e, Layer };

struct Row {
  std::string metric;
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< "wall", "modelled" or "none"
  std::string layer;
  Kind kind = Kind::Layer;
  std::size_t n = 1;  ///< samples behind the value
  std::string stat;   ///< "p50", "p99", "mean", "median", "total", ...
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< non-empty = traced run
  std::string workdir = ".";  ///< scratch space for on-disk state
  bool smoke = false;         ///< toy sizes: seconds-scale CI check
  bool traced() const { return !trace_path.empty(); }
};

/// One row as a JSON object, the value with every digit of its double.
std::string row_json(const Row& r);

/// Rows plus the correctness ledger of one run.
class Report {
 public:
  void e2e(std::string metric, double value, std::string unit,
           std::string clock, std::string layer, std::size_t n,
           std::string stat);
  void layer(std::string metric, double value, std::string unit,
             std::string clock, std::string layer, std::size_t n = 1,
             std::string stat = "mean");

  /// A correctness check: a false `ok` is printed to stderr and counted as
  /// one failed operation.
  void check(bool ok, const std::string& what);
  /// Operation accounting: `attempted` operations, of which `failed`
  /// were rejected, expired or failed.
  void ops(std::uint64_t attempted, std::uint64_t failed);
  /// Carry another report's ledger, and its rows of one kind, into this
  /// one.
  void absorb(const Report& other, Kind kind);

  const std::vector<Row>& rows() const { return rows_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_ + check_failures_; }
  std::uint64_t check_failures() const { return check_failures_; }

 private:
  std::vector<Row> rows_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t check_failures_ = 0;
};

/// Bench-local span recorder for the traced run: spans around each call
/// into a layer, kept in memory and written as a Chrome trace at exit.
/// Disabled (every call a no-op) in untraced runs.
class Recorder {
 public:
  static Recorder& global();

  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  /// Record a finished span; times are seconds on now_s().  Returns its
  /// index, usable as a later span's parent (-1 = root).
  int add(const std::string& name, double start_s, double end_s,
          int parent = -1, std::uint64_t query = 0);

  /// Chrome trace JSON ("traceEvents") with the per-layer rows alongside
  /// under "xbench".
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed, const std::vector<Row>& rows) const;

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t query = 0;
  };
  bool on_ = false;
  std::vector<Span> spans_;
};

/// Times its scope as one span when the recorder is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int parent = -1,
                      std::uint64_t query = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int parent_;
  std::uint64_t query_;
  double start_s_;
};

/// Seconds on the steady clock since process start.
double now_s();
/// Sleep until now_s() reaches `t`.
void sleep_until_s(double t);

/// Exact percentile by linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Steady completion rate of a burst, per second: the middle 80% of its
/// completion times (s) cut into eight equal-count windows, and the median
/// of their rates, so neither the ramp-up, the last stragglers nor one
/// stalled window moves it.  0 for fewer than 16 completions.
double steady_rate(std::vector<double> done_s);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Tracks the most threads seen at any sample point.
class ThreadWatch {
 public:
  void sample();
  unsigned peak() const { return peak_; }

 private:
  unsigned peak_ = 0;
};

/// Everything a workload needs while it runs.
struct Ctx {
  const Options& opt;
  Report& report;
  ThreadWatch& threads;
};

/// Wall seconds of one set-up: generating the inputs, then loading them
/// into the system under test.
struct SetupTimes {
  double graph_s = 0.0;
  double load_s = 0.0;
};
/// setup_s (median of the totals) and the per-phase medians setup.graph_s
/// and setup.load_s.
void report_setup(Ctx& ctx, const std::vector<SetupTimes>& runs);

/// Run `f` inside a span named `name`; returns its wall time in seconds.
template <class F>
double timed(const char* name, F&& f) {
  const double t0 = now_s();
  {
    ScopedSpan span(name);
    f();
  }
  return now_s() - t0;
}

/// How many times every workload sets up; setup_s is their median.  Five
/// puts the median past the first set-up's cold allocator and caches.
inline constexpr int kSetups = 5;

/// Run `once(SetupTimes&)` kSetups times (the last build is the one
/// measured), recording setup.* spans in a traced run, then report them.
template <class Once>
void run_setups(Ctx& ctx, Once&& once) {
  Recorder::global().enable(ctx.opt.traced());
  std::vector<SetupTimes> runs(kSetups);
  for (SetupTimes& t : runs) once(t);
  Recorder::global().enable(false);
  report_setup(ctx, runs);
  ctx.threads.sample();
}

/// The wall-clock rows of a workload's primary operation: p50_ms and
/// tail_ms of its latency samples `ms` (`tail_q` is the workload's fixed
/// tail percentile; stderr warns when fewer than ten samples lie beyond it)
/// and its throughput ops_per_s.  They repeat too loosely on a shared host
/// to gate, so they are per-layer rows, reported from untraced passes only.
void report_wall(Ctx& ctx, const std::vector<double>& ms, double tail_q,
                 double ops_per_s, const std::string& layer);

/// Turn the traced-pass instruments on or off: the span recorder and the
/// process metrics registry (which fills the store.* histograms).
void set_tracing(bool on);

/// Run a workload's measured phase.  Untraced: one pass.  Traced: an
/// untraced pass, whose ledger and per-layer (report_wall) rows are kept,
/// then a traced pass for the remaining per-layer rows;
/// obs.trace_overhead_pct compares their primary-operation medians.
/// `pass(ctx, traced)` returns that median in ms.
template <class Pass>
void measure(Ctx& ctx, Pass&& pass) {
  if (!ctx.opt.traced()) {
    pass(ctx, false);
    return;
  }
  Report untraced;
  Ctx quiet{ctx.opt, untraced, ctx.threads};
  const double base = pass(quiet, false);
  ctx.report.absorb(untraced, Kind::Layer);
  set_tracing(true);
  const double traced = pass(ctx, true);
  set_tracing(false);
  ctx.report.layer("obs.trace_overhead_pct",
                   base > 0.0 ? 100.0 * (traced - base) / base : 0.0, "%",
                   "wall", "obs", 2, "p50 ratio");
}

}  // namespace xbench
