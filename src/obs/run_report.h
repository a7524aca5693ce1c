// Versioned machine-readable run reports — the artifact a regression
// harness diffs.  One RunRecord captures a single traversal: which tool
// produced it, the graph, the end-to-end result, one row per BFS level
// (mirroring core::LevelStats / shard::ShardLevelStats exactly) and the
// per-kernel aggregate the paper's Fig. 5 breakdown uses.
//
// The process-wide ReportSession collects every record produced while
// XBFS_RUN_REPORT=<path> is set and writes a single JSON document
// ({"schema":"xbfs-run-report","version":1,"runs":[...]}) when it flushes
// (process exit, or an explicit flush()).  Benches can stamp contextual
// key/values (dataset name, scale divisor) that are merged into each
// subsequently added record, so per-run code stays context-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace xbfs::obs {

/// Current value of the "version" field in emitted reports.  Bump on any
/// backwards-incompatible schema change and note it in
/// docs/observability.md.
inline constexpr int kRunReportVersion = 1;
inline constexpr const char* kRunReportSchema = "xbfs-run-report";

/// One BFS level.  The sharded sweep fills local_ms/comm_ms (has_comm=true);
/// single-device runners fill fetch_kb/kernels.
struct ReportLevelRow {
  std::int64_t level = 0;
  std::string strategy;
  bool nfg = false;
  std::uint64_t frontier = 0;
  std::uint64_t edges = 0;
  double ratio = 0.0;
  double time_ms = 0.0;
  double fetch_kb = 0.0;
  std::uint64_t kernels = 0;
  bool has_comm = false;
  double local_ms = 0.0;
  double comm_ms = 0.0;
};

/// Per-kernel aggregate over the run (mirrors Profiler::KernelTotal).
struct ReportKernelRow {
  std::string kernel;
  double runtime_ms = 0.0;
  double fetch_kb = 0.0;
  std::uint64_t launches = 0;
};

struct RunRecord {
  std::string tool;       ///< "xbfs", "simple_scan", "shard_sweep", ...
  std::string algorithm = "bfs";
  std::uint64_t n = 0;    ///< vertices
  std::uint64_t m = 0;    ///< directed edge entries
  std::int64_t source = -1;
  std::uint32_t depth = 0;
  double total_ms = 0.0;
  double gteps = 0.0;
  std::uint64_t edges_traversed = 0;
  /// Stringified configuration / context (alpha, stream_mode, dataset...).
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<ReportLevelRow> levels;
  std::vector<ReportKernelRow> kernels;
};

/// Write the full report document for `runs`.
void write_run_report_json(std::ostream& os,
                           const std::vector<RunRecord>& runs);

class ReportSession {
 public:
  /// The process-wide session; reads XBFS_RUN_REPORT on first use and
  /// flushes at process exit.
  static ReportSession& global();

  ReportSession();
  ~ReportSession();

  ReportSession(const ReportSession&) = delete;
  ReportSession& operator=(const ReportSession&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable(std::string path = "");
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  const std::string& output_path() const { return path_; }

  /// Append a record (no-op when disabled).  Session context key/values are
  /// merged into the record's config at this point.
  void add(RunRecord r);

  /// Contextual key/value stamped onto every record added afterwards
  /// (benches set the dataset name here).  Re-setting a key overwrites it.
  void set_context(const std::string& key, const std::string& value);
  void clear_context();

  std::vector<RunRecord> snapshot() const;
  std::size_t size() const;
  void clear();

  /// Write the JSON document to output_path(); safe to call repeatedly.
  void flush();

 private:
  std::atomic<bool> enabled_{false};
  std::string path_;
  mutable std::mutex mu_;
  std::vector<RunRecord> runs_;
  std::vector<std::pair<std::string, std::string>> context_;
};

}  // namespace xbfs::obs
