#include "algos/engines.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "algos/cc_engine.h"
#include "algos/kcore_engine.h"
#include "algos/sssp_engine.h"
#include "baseline/async_sssp.h"
#include "baseline/cpu_bfs.h"
#include "baseline/simple_scan.h"
#include "core/engine_registry.h"
#include "core/xbfs.h"
#include "graph/builder.h"
#include "graph/reference.h"

namespace xbfs::algos {

using core::AlgoKind;
using core::AlgoQuery;
using core::AlgoResult;
using core::EngineContext;
using graph::vid_t;

BcEngine::BcEngine(sim::Device& dev, const graph::DeviceCsr& g)
    : dev_(dev), g_(g) {}

AlgoResult BcEngine::solve(const AlgoQuery& q) {
  BcResult r = betweenness_centrality(dev_, g_, {q.source});
  AlgoResult out;
  out.payload.kind = AlgoKind::Bc;
  out.payload.scores = std::make_shared<const std::vector<double>>(
      std::move(r.centrality));
  out.total_ms = r.total_ms;
  return out;
}

SccEngine::SccEngine(sim::Device& dev, const graph::Csr& host_g,
                     const graph::DeviceCsr& fwd)
    : dev_(dev), fwd_(fwd) {
  bwd_ = graph::DeviceCsr::upload(dev, graph::reverse_csr(host_g));
}

AlgoResult SccEngine::solve(const AlgoQuery&) {
  SccResult r = scc_fw_bw(dev_, fwd_, bwd_);
  AlgoResult out;
  out.payload.kind = AlgoKind::Scc;
  out.payload.components = std::make_shared<const std::vector<vid_t>>(
      std::move(r.component));
  out.payload.depth = r.fwbw_rounds;
  out.total_ms = r.total_ms;
  out.work_items = r.trimmed;
  return out;
}

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One fault-immune host oracle per kind: an engine shell over one
/// graph/reference algorithm, registered as the host fallback rung the
/// serving ladder degrades to when every device rung has failed.  total_ms
/// is wall time.
class HostOracleEngine final : public core::AlgorithmEngine {
 public:
  /// Fills the payload's vector (and depth) from the reference
  /// computation; the shell sets the kind.
  using Oracle = void (*)(const graph::Csr&, const AlgoQuery&,
                          core::ResultPayload&);

  HostOracleEngine(AlgoKind kind, const char* name, const graph::Csr& g,
                   Oracle oracle)
      : kind_(kind), name_(name), g_(g), oracle_(oracle) {}
  AlgoKind kind() const override { return kind_; }
  const char* name() const override { return name_; }
  core::EngineCapabilities capabilities() const override { return {}; }
  AlgoResult solve(const AlgoQuery& q) override {
    const auto t0 = std::chrono::steady_clock::now();
    AlgoResult out;
    out.payload.kind = kind_;
    oracle_(g_, q, out.payload);
    out.total_ms = wall_ms_since(t0);
    return out;
  }

 private:
  AlgoKind kind_;
  const char* name_;
  const graph::Csr& g_;
  Oracle oracle_;
};

template <class T>
std::shared_ptr<const std::vector<T>> share(std::vector<T> v) {
  return std::make_shared<const std::vector<T>>(std::move(v));
}

void host_sssp(const graph::Csr& g, const AlgoQuery& q,
               core::ResultPayload& p) {
  p.distances = share(graph::reference_sssp(g, q.source, q.params.weight_seed,
                                            q.params.max_weight));
}

void host_cc(const graph::Csr& g, const AlgoQuery&, core::ResultPayload& p) {
  p.components = share(graph::canonical_components(g));
}

void host_kcore(const graph::Csr& g, const AlgoQuery& q,
                core::ResultPayload& p) {
  p.cores = share(graph::reference_kcore(g, q.params.k));
}

void host_bc(const graph::Csr& g, const AlgoQuery& q, core::ResultPayload& p) {
  p.scores = share(betweenness_reference(g, {q.source}));
}

void host_scc(const graph::Csr& g, const AlgoQuery&, core::ResultPayload& p) {
  vid_t n_comp = 0;
  p.components = share(scc_reference(g, &n_comp));
  p.depth = n_comp;
}

bool device_ready(const EngineContext& ctx) {
  return ctx.dev != nullptr && ctx.dg != nullptr;
}

void register_host_oracle(core::EngineRegistry& reg, AlgoKind kind,
                          const char* name, HostOracleEngine::Oracle oracle) {
  reg.register_engine(
      kind, name, 0, false,
      [=](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!ctx.host_g) return nullptr;
        return std::make_unique<HostOracleEngine>(kind, name, *ctx.host_g,
                                                  oracle);
      });
}

void do_register() {
  auto& reg = core::EngineRegistry::global();

  // --- Bfs: the pre-PR 8 serving ladder, now expressed as registrations.
  reg.register_engine(
      AlgoKind::Bfs, "xbfs", 0, true,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!device_ready(ctx)) return nullptr;
        return std::make_unique<core::Xbfs>(
            *ctx.dev, *ctx.dg, ctx.config ? *ctx.config : core::XbfsConfig{});
      });
  reg.register_engine(
      AlgoKind::Bfs, "simple-scan", 1, true,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!device_ready(ctx)) return nullptr;
        return std::make_unique<baseline::SimpleScanBfs>(*ctx.dev, *ctx.dg);
      });
  // Conformance/bench only (rung -1): the asynchronous SSSP-as-BFS
  // baseline never serves — the paper's point is that it loses to the
  // level-synchronous engines.
  reg.register_engine(
      AlgoKind::Bfs, "async-sssp", -1, true,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!device_ready(ctx)) return nullptr;
        return std::make_unique<baseline::AsyncSsspBfs>(*ctx.dev, *ctx.dg);
      });
  reg.register_engine(
      AlgoKind::Bfs, "cpu-bfs", 0, false,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!ctx.host_g) return nullptr;
        return std::make_unique<baseline::CpuBfsEngine>(*ctx.host_g);
      });

  // --- Sssp
  reg.register_engine(
      AlgoKind::Sssp, "delta-sssp", 0, true,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!device_ready(ctx)) return nullptr;
        const double alpha =
            ctx.config ? ctx.config->alpha : core::XbfsConfig{}.alpha;
        return std::make_unique<DeltaSsspEngine>(*ctx.dev, *ctx.dg, alpha);
      });
  register_host_oracle(reg, AlgoKind::Sssp, "host-sssp", host_sssp);

  // --- Cc
  reg.register_engine(
      AlgoKind::Cc, "lp-cc", 0, true,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!device_ready(ctx)) return nullptr;
        return std::make_unique<LpCcEngine>(*ctx.dev, *ctx.dg);
      });
  register_host_oracle(reg, AlgoKind::Cc, "host-cc", host_cc);

  // --- KCore
  reg.register_engine(
      AlgoKind::KCore, "kcore-pull", 0, true,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!device_ready(ctx)) return nullptr;
        return std::make_unique<KCorePullEngine>(*ctx.dev, *ctx.dg);
      });
  register_host_oracle(reg, AlgoKind::KCore, "host-kcore", host_kcore);

  // --- Bc
  reg.register_engine(
      AlgoKind::Bc, "brandes-bc", 0, true,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!device_ready(ctx)) return nullptr;
        return std::make_unique<BcEngine>(*ctx.dev, *ctx.dg);
      });
  register_host_oracle(reg, AlgoKind::Bc, "host-bc", host_bc);

  // --- Scc (needs the host topology for the transpose upload)
  reg.register_engine(
      AlgoKind::Scc, "fwbw-scc", 0, true,
      [](const EngineContext& ctx) -> std::unique_ptr<core::AlgorithmEngine> {
        if (!device_ready(ctx) || !ctx.host_g) return nullptr;
        return std::make_unique<SccEngine>(*ctx.dev, *ctx.host_g, *ctx.dg);
      });
  register_host_oracle(reg, AlgoKind::Scc, "host-scc", host_scc);
}

}  // namespace

void register_builtin_engines() {
  static std::once_flag once;
  std::call_once(once, do_register);
}

}  // namespace xbfs::algos
