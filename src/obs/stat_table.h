// Declarative stat tables: each serving and dynamic-engine stat is one row
// of its subsystem's X-macro list,
//
//   #define XBFS_<NAME>_STATS(COUNTER, HISTOGRAM, VALUE, REPORT) ...
//
//   COUNTER(field, unit, clock, help)    obs::Counter handle hot paths bump;
//                                        std::uint64_t snapshot field
//   HISTOGRAM(field, unit, clock, help)  obs::Histogram handle; a metrics
//                                        histogram, read by VALUE rows
//   VALUE(type, field, key, kind, unit, clock, help, expr)
//       snapshot field set to `expr` when the snapshot is taken
//   REPORT(type, key, kind, unit, clock, help, expr)
//       summary-only value set to `expr` when the summary is written
//
// and every view of the stats is an expansion of that list: the handles
// (XBFS_STAT_HANDLES), the typed snapshot (XBFS_STAT_FIELDS, filled by
// XBFS_STAT_LOAD), the summary record and `<prefix>.<key>` metrics
// (XBFS_STAT_VISIT with StatExport), the flight-recorder context
// (XBFS_STAT_VISIT_COUNTERS) and the rows docs/observability.md is checked
// against (XBFS_STAT_ROWS).  COUNTER and HISTOGRAM keys are the field name.
// Expressions run in the owner's member functions, where `s` is the
// snapshot (rows above are filled in) and `c` the handles; `type` is
// std::uint64_t, double, bool or std::string.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/run_report.h"

namespace xbfs::obs {

enum class StatKind : std::uint8_t { Counter, Gauge, Histogram, Derived };
/// Which clock a stat is measured on: None (counts, sizes, ratios of
/// counts), Wall (host time), Modelled (the simulated device's clock),
/// Config (fixed at construction).
enum class StatClock : std::uint8_t { None, Wall, Modelled, Config };

/// One declared stat, as XBFS_STAT_ROWS renders it.
struct StatDef {
  const char* key;  ///< summary key and metric suffix
  StatKind kind;
  const char* unit;
  StatClock clock;
  const char* help;
};

/// a / b, or 0 while nothing was counted (b <= 0): derived ratios and rates.
constexpr double ratio(double a, double b) { return b <= 0.0 ? 0.0 : a / b; }

/// "%.6g": the rendering of doubles in summary records and trace details.
std::string fmt_double(double v);

/// XBFS_STAT_VISIT callback: appends each row to a run record's config as
/// `<key_prefix><key>` (doubles "%.6g", bools "1"/"0") and, while the
/// metrics registry is enabled, exports it as
/// `<metric_prefix>.<key_prefix><key>`: counters add, other numbers set a
/// gauge, histograms merge.  Config rows and strings are not metrics.
class StatExport {
 public:
  StatExport(RunRecord& r, std::string metric_prefix,
             std::string key_prefix = {});

  void operator()(const StatDef& d, std::uint64_t v) const;
  void operator()(const StatDef& d, double v) const;
  void operator()(const StatDef& d, bool v) const;
  void operator()(const StatDef& d, const std::string& v) const;
  void operator()(const StatDef& d, const Histogram& h) const;

 private:
  /// The metric name, or "" when `d` is not exported as a metric.
  std::string metric(const StatDef& d) const;

  RunRecord& r_;
  MetricsRegistry& mx_;
  std::string metric_prefix_;
  std::string key_prefix_;
};

}  // namespace xbfs::obs

#define XBFS_STAT_SKIP(...)

#define XBFS_STAT_HANDLE_COUNTER(field, ...) ::xbfs::obs::Counter field;
#define XBFS_STAT_HANDLE_HISTOGRAM(field, ...) ::xbfs::obs::Histogram field;
#define XBFS_STAT_HANDLES(TABLE)                                       \
  TABLE(XBFS_STAT_HANDLE_COUNTER, XBFS_STAT_HANDLE_HISTOGRAM,          \
        XBFS_STAT_SKIP, XBFS_STAT_SKIP)

#define XBFS_STAT_FIELD_COUNTER(field, ...) std::uint64_t field = 0;
#define XBFS_STAT_FIELD_VALUE(type, field, ...) type field{};
#define XBFS_STAT_FIELDS(TABLE)                                        \
  TABLE(XBFS_STAT_FIELD_COUNTER, XBFS_STAT_SKIP, XBFS_STAT_FIELD_VALUE, \
        XBFS_STAT_SKIP)

#define XBFS_STAT_LOAD_COUNTER(field, ...) s.field = c.field.value();
#define XBFS_STAT_LOAD_VALUE(type, field, key, kind, unit, clock, help, \
                             expr)                                      \
  s.field = (expr);
#define XBFS_STAT_LOAD(TABLE)                                        \
  TABLE(XBFS_STAT_LOAD_COUNTER, XBFS_STAT_SKIP, XBFS_STAT_LOAD_VALUE, \
        XBFS_STAT_SKIP)

#define XBFS_STAT_DEF(key, kind, unit, clock, help)                  \
  ::xbfs::obs::StatDef{key, ::xbfs::obs::StatKind::kind, unit,       \
                       ::xbfs::obs::StatClock::clock, help}

#define XBFS_STAT_VISIT_COUNTER(field, unit, clock, help) \
  f(XBFS_STAT_DEF(#field, Counter, unit, clock, help), s.field);
#define XBFS_STAT_VISIT_HISTOGRAM(field, unit, clock, help) \
  f(XBFS_STAT_DEF(#field, Histogram, unit, clock, help), c.field);
#define XBFS_STAT_VISIT_VALUE(type, field, key, kind, unit, clock, help, \
                              expr)                                      \
  f(XBFS_STAT_DEF(key, kind, unit, clock, help), s.field);
#define XBFS_STAT_VISIT_REPORT(type, key, kind, unit, clock, help, expr) \
  f(XBFS_STAT_DEF(key, kind, unit, clock, help), static_cast<type>(expr));
#define XBFS_STAT_VISIT(TABLE)                                           \
  TABLE(XBFS_STAT_VISIT_COUNTER, XBFS_STAT_VISIT_HISTOGRAM,              \
        XBFS_STAT_VISIT_VALUE, XBFS_STAT_VISIT_REPORT)

#define XBFS_STAT_VISIT_HANDLE_COUNTER(field, unit, clock, help) \
  f(XBFS_STAT_DEF(#field, Counter, unit, clock, help), c.field.value());
#define XBFS_STAT_VISIT_COUNTERS(TABLE)                                  \
  TABLE(XBFS_STAT_VISIT_HANDLE_COUNTER, XBFS_STAT_SKIP, XBFS_STAT_SKIP,  \
        XBFS_STAT_SKIP)

#define XBFS_STAT_ROW_COUNTER(field, unit, clock, help) \
  XBFS_STAT_DEF(#field, Counter, unit, clock, help),
#define XBFS_STAT_ROW_HISTOGRAM(field, unit, clock, help) \
  XBFS_STAT_DEF(#field, Histogram, unit, clock, help),
#define XBFS_STAT_ROW_VALUE(type, field, key, kind, unit, clock, help, expr) \
  XBFS_STAT_DEF(key, kind, unit, clock, help),
#define XBFS_STAT_ROW_REPORT(type, key, kind, unit, clock, help, expr) \
  XBFS_STAT_DEF(key, kind, unit, clock, help),
#define XBFS_STAT_ROWS(TABLE)                                          \
  TABLE(XBFS_STAT_ROW_COUNTER, XBFS_STAT_ROW_HISTOGRAM,                \
        XBFS_STAT_ROW_VALUE, XBFS_STAT_ROW_REPORT)
