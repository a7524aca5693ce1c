// EngineRegistry: name -> factory resolution for the algorithm family.
//
// The serving engine resolves engines per query kind through the registry
// instead of hard-coding concrete types: at startup it builds, for every
// enabled AlgoKind, a degradation ladder (device engines in rung order)
// plus a fault-immune host fallback, all from registered factories.
// Examples and the conformance suite iterate list() so a newly registered
// engine is automatically served, validated against its host oracle, and
// shown in `--list-engines` style tooling with zero call-site edits.
//
// Factories receive an EngineContext describing what the process has
// (device, uploaded CSR, host topology, tuning config) and return null
// when the context is insufficient — e.g. a device engine without a
// device — so one registration works for host-only tools too.
//
// Registration happens at startup through explicit calls (the builtin set
// lives in algos::register_builtin_engines()); there is deliberately no
// static-initializer magic, which the linker may dead-strip out of static
// libraries.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/algorithm_engine.h"
#include "core/config.h"

namespace xbfs::sim {
class Device;
}
namespace xbfs::graph {
struct DeviceCsr;
class Csr;
}

namespace xbfs::core {

/// What a factory may draw on; null members mean "not available here".
/// Non-owning — the caller keeps everything alive for the engine's life.
struct EngineContext {
  sim::Device* dev = nullptr;             ///< simulated GPU
  const graph::DeviceCsr* dg = nullptr;   ///< CSR resident on `dev`
  const graph::Csr* host_g = nullptr;     ///< host topology (oracles, transposes)
  const XbfsConfig* config = nullptr;     ///< tuning knobs; null = defaults
};

using EngineFactory =
    std::function<std::unique_ptr<AlgorithmEngine>(const EngineContext&)>;

/// list() row: everything about a registration except the factory.
struct EngineInfo {
  AlgoKind kind = AlgoKind::Bfs;
  std::string name;
  /// Degradation-ladder position; 0 = preferred.  Negative = registered
  /// for direct build()/conformance only, never placed in a serving
  /// ladder (e.g. the async-SSSP BFS baseline).
  int rung = 0;
  bool on_device = false;
};

class EngineRegistry {
 public:
  /// The process-wide registry every consumer resolves against.
  static EngineRegistry& global();

  EngineRegistry() = default;
  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

  /// Register (or replace — same kind+name wins latest) an engine factory.
  /// `on_device` must match what the built engine's capabilities() report;
  /// it is lifted here so ladder construction needn't instantiate engines.
  void register_engine(AlgoKind kind, std::string name, int rung,
                       bool on_device, EngineFactory factory);

  /// Build one engine by (kind, name); null when unknown or when the
  /// factory declines the context.
  std::unique_ptr<AlgorithmEngine> build(AlgoKind kind, const std::string& name,
                                         const EngineContext& ctx) const;

  /// Device degradation ladder for `kind`: every on-device registration
  /// with rung >= 0, ordered by rung, minus factories that decline the
  /// context.  May be empty (host-only process).
  std::vector<std::unique_ptr<AlgorithmEngine>> build_ladder(
      AlgoKind kind, const EngineContext& ctx) const;

  /// The preferred host (fault-immune) engine for `kind`: lowest-rung
  /// non-device registration the context can satisfy, or null.
  std::unique_ptr<AlgorithmEngine> build_host(AlgoKind kind,
                                              const EngineContext& ctx) const;

  /// Any registration (device or host) exists for `kind`.
  bool supports(AlgoKind kind) const;

  /// Every registration, kind-major then rung order.
  std::vector<EngineInfo> list() const;

 private:
  struct Entry {
    EngineInfo info;
    EngineFactory factory;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace xbfs::core
