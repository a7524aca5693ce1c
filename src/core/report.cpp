#include "core/report.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>

namespace xbfs::core {

void print_schedule(std::ostream& os, const BfsResult& r) {
  os << "level  strategy      frontier       ratio      time(ms)\n";
  for (const LevelStats& st : r.level_stats) {
    os << std::setw(5) << st.level << "  " << std::left << std::setw(12)
       << strategy_name(st.strategy) << std::right << std::setw(10)
       << st.frontier_count << "  " << std::scientific
       << std::setprecision(2) << std::setw(9) << st.ratio << std::fixed
       << std::setprecision(4) << std::setw(12) << st.time_ms
       << (st.skipped_generation ? "  [NFG]" : "") << "\n";
  }
  os << std::fixed << std::setprecision(3) << "end-to-end: " << r.total_ms
     << " ms, " << r.gteps << " GTEPS (" << r.edges_traversed << " edges, "
     << r.depth << " levels)\n";
}

void write_schedule_csv(std::ostream& os, const BfsResult& r) {
  os << "level,strategy,nfg,frontier,edges,ratio,time_ms,fetch_kb\n";
  for (const LevelStats& st : r.level_stats) {
    os << st.level << ',' << strategy_name(st.strategy) << ','
       << (st.skipped_generation ? 1 : 0) << ',' << st.frontier_count << ','
       << st.frontier_edges << ',' << st.ratio << ',' << st.time_ms << ','
       << st.fetch_kb << '\n';
  }
}

obs::RunRecord to_run_record(const BfsResult& r, std::string tool,
                             std::uint64_t n, std::uint64_t m,
                             std::int64_t source, const XbfsConfig* cfg,
                             const sim::Profiler* prof,
                             std::size_t first_record) {
  obs::RunRecord rec;
  rec.tool = std::move(tool);
  rec.n = n;
  rec.m = m;
  rec.source = source;
  rec.depth = r.depth;
  rec.total_ms = r.total_ms;
  rec.gteps = r.gteps;
  rec.edges_traversed = r.edges_traversed;

  if (cfg != nullptr) {
    rec.config.emplace_back("alpha", std::to_string(cfg->alpha));
    rec.config.emplace_back("growth_threshold",
                            std::to_string(cfg->growth_threshold));
    rec.config.emplace_back("enable_nfg", cfg->enable_nfg ? "true" : "false");
    rec.config.emplace_back("enable_lookahead",
                            cfg->enable_lookahead ? "true" : "false");
    rec.config.emplace_back("bottomup_bitmap",
                            cfg->bottomup_bitmap ? "true" : "false");
    rec.config.emplace_back("stream_mode",
                            cfg->stream_mode == StreamMode::Single
                                ? "single"
                                : "triple_binned");
    rec.config.emplace_back("block_threads",
                            std::to_string(cfg->block_threads));
    rec.config.emplace_back("forced_strategy",
                            std::to_string(cfg->forced_strategy));
  }

  rec.levels.reserve(r.level_stats.size());
  for (const LevelStats& st : r.level_stats) {
    obs::ReportLevelRow row;
    row.level = st.level;
    row.strategy = strategy_name(st.strategy);
    row.nfg = st.skipped_generation;
    row.frontier = st.frontier_count;
    row.edges = st.frontier_edges;
    row.ratio = st.ratio;
    row.time_ms = st.time_ms;
    row.fetch_kb = st.fetch_kb;
    row.kernels = st.kernels;
    rec.levels.push_back(std::move(row));
  }

  if (prof != nullptr && first_record < prof->records().size()) {
    std::map<std::string, obs::ReportKernelRow> acc;
    for (std::size_t i = first_record; i < prof->records().size(); ++i) {
      const sim::LaunchRecord& lr = prof->records()[i];
      obs::ReportKernelRow& k = acc[lr.kernel];
      k.kernel = lr.kernel;
      k.runtime_ms += lr.runtime_ms();
      k.fetch_kb += lr.fetch_kb();
      if (lr.launched) k.launches += 1;
    }
    rec.kernels.reserve(acc.size());
    for (auto& [_, k] : acc) rec.kernels.push_back(std::move(k));
    std::sort(rec.kernels.begin(), rec.kernels.end(),
              [](const obs::ReportKernelRow& a,
                 const obs::ReportKernelRow& b) {
                return a.runtime_ms > b.runtime_ms;
              });
  }
  return rec;
}

void record_run(const BfsResult& r, std::string tool, std::uint64_t n,
                std::uint64_t m, std::int64_t source, const XbfsConfig* cfg,
                const sim::Profiler* prof, std::size_t first_record) {
  obs::ReportSession& session = obs::ReportSession::global();
  if (!session.enabled()) return;
  session.add(to_run_record(r, std::move(tool), n, m, source, cfg, prof,
                            first_record));
}

}  // namespace xbfs::core
