// xbench: one workload of the repository benchmark per process.
//
//   xbench --workload=W --seed=N [--seconds=S] [--trace=out.json]
//          [--workdir=DIR] [--smoke]
//
// Prints `seed=N`, a build stamp, one JSON row per metric
// ({"row": {metric, value, unit, clock, layer, kind, n, stat}}) and, last,
// the ledger {"xbench": {attempted, failed, check_failures, correct}}.
// Untraced runs print the end-to-end rows; --trace runs print the
// per-layer rows and write the span trace to the given path.  Exits 1 when
// any correctness check failed, 2 on bad usage or a refused environment.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "hipsim/fault.h"
#include "obs/json_writer.h"
#include "workloads.h"

namespace {

using xbench::Ctx;

struct Workload {
  const char* name;
  void (*run)(Ctx&);
};

constexpr Workload kWorkloads[] = {
    {"bfs-rmat", xbench::run_bfs_rmat},
    {"bfs-longdiam", xbench::run_bfs_longdiam},
    {"serve-zipf", xbench::run_serve_zipf},
    {"churn-durable", xbench::run_churn_durable},
    {"shard-serve", xbench::run_shard_serve},
};

/// Every workload stays within this many live threads, the load generator
/// included (the benchmark host has four cores).
constexpr unsigned kThreadCap = 4;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "xbench: %s\nusage: xbench --workload=W --seed=N "
               "[--seconds=S] [--trace=PATH] [--workdir=DIR] [--smoke]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

xbench::Options parse(int argc, char** argv) {
  xbench::Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&](const char* flag) -> const char* {
      const std::size_t len = std::strlen(flag);
      return std::strncmp(a, flag, len) == 0 && a[len] == '=' ? a + len + 1
                                                              : nullptr;
    };
    const char* v = nullptr;
    if ((v = val("--workload"))) {
      o.workload = v;
    } else if ((v = val("--seed"))) {
      char* end = nullptr;
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if ((v = val("--seconds"))) {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if ((v = val("--trace"))) {
      o.trace_path = v;
    } else if ((v = val("--workdir"))) {
      o.workdir = v;
    } else if (std::strcmp(a, "--smoke") == 0) {
      o.smoke = true;
    } else {
      usage((std::string("unknown argument ") + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return o;
}

/// Ambient knobs that change what the library does or how fast it runs; a
/// measurement taken under any of them is not comparable, so refuse.
void refuse_ambient_knobs() {
  static const char* kRefused[] = {"XBFS_SANITIZE", "XBFS_SCHEDCHECK",
                                   "XBFS_DURABLE_CRASH", "XBFS_TRACE",
                                   "XBFS_METRICS"};
  for (const char* k : kRefused) {
    if (const char* v = std::getenv(k); v != nullptr && *v != '\0') {
      std::fprintf(stderr, "xbench: refusing to run with %s=%s set\n", k, v);
      std::exit(2);
    }
  }
  // The benchmark measures the fault-free path; XBFS_FAULTS is ignored.
  xbfs::sim::FaultInjector::global().disable();
}

}  // namespace

int main(int argc, char** argv) {
  const xbench::Options opt = parse(argc, argv);
  refuse_ambient_knobs();

  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());

  std::printf("seed=%llu workload=%s seconds=%g traced=%d\n",
              static_cast<unsigned long long>(opt.seed), wl->name,
              opt.seconds, opt.traced() ? 1 : 0);
  std::fflush(stdout);

  xbench::Report report;
  xbench::ThreadWatch threads;
  Ctx ctx{opt, report, threads};
  threads.sample();
  wl->run(ctx);
  threads.sample();

  report.check(threads.peak() <= kThreadCap,
               "peak of " + std::to_string(threads.peak()) +
                   " threads exceeds the cap of " + std::to_string(kThreadCap));
  report.e2e("rss_mb", xbench::peak_rss_mb(), "MiB", "wall", "host", 1,
             "peak");
  const double attempted = static_cast<double>(report.attempted());
  const double failed = static_cast<double>(report.failed());
  report.layer("error_rate", attempted > 0.0 ? failed / attempted : 1.0,
               "ratio", "none", "all", report.attempted(), "ratio");

  if (opt.traced() &&
      !xbench::Recorder::global().write(opt.trace_path, wl->name, opt.seed,
                                        report.rows())) {
    report.check(false, "could not write trace to " + opt.trace_path);
  }

  {
    std::ostringstream os;
    xbfs::obs::JsonWriter w(os);
    w.begin_object().key("stamp").begin_object();
    w.kv("build_type", XBENCH_BUILD_TYPE);
#ifdef NDEBUG
    w.kv("ndebug", true);
#else
    w.kv("ndebug", false);
#endif
    w.kv("compiler", __VERSION__);
    w.kv("nproc", std::thread::hardware_concurrency());
    w.kv("threads", threads.peak());
    w.end_object().end_object();
    std::printf("%s\n", os.str().c_str());
  }

  const xbench::Kind shown =
      opt.traced() ? xbench::Kind::Layer : xbench::Kind::E2e;
  for (const xbench::Row& r : report.rows()) {
    if (r.kind == shown) {
      std::printf("{\"row\":%s}\n", xbench::row_json(r).c_str());
    }
  }
  const bool correct = report.check_failures() == 0;
  std::printf(
      "{\"xbench\": {\"attempted\": %llu, \"failed\": %llu, "
      "\"check_failures\": %llu, \"correct\": %s, \"spans\": %zu}}\n",
      static_cast<unsigned long long>(report.attempted()),
      static_cast<unsigned long long>(report.failed()),
      static_cast<unsigned long long>(report.check_failures()),
      correct ? "true" : "false", xbench::Recorder::global().size());
  return correct ? 0 : 1;
}
