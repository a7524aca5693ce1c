// Unified-status API tests: xbfs::Status semantics, admission outcomes
// as Status, and the validate-don't-clamp contract — nonsense
// configurations are rejected with std::invalid_argument by the Xbfs and
// Server constructors instead of being silently repaired.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "graph/rmat.h"
#include "serve/admission_queue.h"
#include "serve/server.h"

namespace xbfs {
namespace {

TEST(StatusApi, DefaultStatusIsOkAndCarriesNoDetail) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::Ok);
  EXPECT_TRUE(s.detail().empty());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusApi, FactoriesProduceTheMatchingCode) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::InvalidArgument);
  EXPECT_EQ(Status::QueueFull("x").code(), StatusCode::QueueFull);
  EXPECT_EQ(Status::ShuttingDown("x").code(), StatusCode::ShuttingDown);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::DeadlineExceeded);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::Unavailable);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::DataCorruption);
  EXPECT_EQ(Status::Fault("x").code(), StatusCode::FaultInjected);
  EXPECT_EQ(Status::Exhausted("x").code(), StatusCode::ResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::Internal);
  EXPECT_FALSE(Status::Internal("x").ok());
}

TEST(StatusApi, ComparesAgainstCodesFromBothSides) {
  const Status s = Status::QueueFull("at capacity");
  EXPECT_TRUE(s == StatusCode::QueueFull);
  EXPECT_TRUE(StatusCode::QueueFull == s);
  EXPECT_FALSE(s == StatusCode::Ok);
}

TEST(StatusApi, ToStringNamesTheCodeAndKeepsTheDetail) {
  const Status s = Status::Corruption("levels failed validation");
  EXPECT_EQ(s.to_string(), "data-corruption: levels failed validation");
  EXPECT_STREQ(status_code_name(StatusCode::QueueFull), "queue-full");
  EXPECT_STREQ(status_code_name(StatusCode::FaultInjected), "fault-injected");
  EXPECT_STREQ(status_code_name(StatusCode::Ok), "ok");
}

// --- XbfsConfig::validate ----------------------------------------------------

TEST(StatusApi, DefaultXbfsConfigValidates) {
  EXPECT_TRUE(core::XbfsConfig{}.validate().ok());
}

TEST(StatusApi, AlphaAboveOneIsTheValidDisableBottomUpIdiom) {
  core::XbfsConfig cfg;
  cfg.alpha = 2.0;  // the alpha-sweep benches rely on this staying legal
  EXPECT_TRUE(cfg.validate().ok());
}

TEST(StatusApi, XbfsConfigRejectsNonsenseValues) {
  core::XbfsConfig cfg;
  cfg.alpha = 0.0;
  EXPECT_EQ(cfg.validate().code(), StatusCode::InvalidArgument);
  cfg = {};
  cfg.alpha = std::nan("");
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.block_threads = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.bottomup_spill_factor = 0.0;
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(StatusApi, XbfsConstructorThrowsOnInvalidConfig) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 8;
  p.seed = 7;
  const graph::Csr g = graph::rmat_csr(p);
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 1, .profiling = false});
  const auto dg = graph::DeviceCsr::upload(dev, g);

  core::XbfsConfig bad;
  bad.block_threads = 0;
  EXPECT_THROW(core::Xbfs(dev, dg, bad), std::invalid_argument);
}

// --- ServeConfig::validate ---------------------------------------------------

TEST(StatusApi, ServeConfigRejectsNonsenseValues) {
  serve::ServeConfig cfg;
  EXPECT_TRUE(cfg.validate().ok());
  cfg.num_gcds = 0;
  EXPECT_EQ(cfg.validate().code(), StatusCode::InvalidArgument);
  cfg = {};
  cfg.max_batch = 65;  // beyond the 64-bit sweep mask
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.min_sweep_sources = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.max_attempts = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.retry_backoff_ms = -1.0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.breaker_failure_threshold = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.xbfs.alpha = -0.5;  // nested traversal config is validated too
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(StatusApi, ServerConstructorThrowsOnInvalidConfig) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 8;
  p.seed = 8;
  const graph::Csr g = graph::rmat_csr(p);

  serve::ServeConfig bad;
  bad.queue_capacity = 0;
  EXPECT_THROW(serve::Server(g, bad), std::invalid_argument);
}

// --- admission statuses ------------------------------------------------------

TEST(StatusApi, AdmissionQueueReportsWhyAPushWasTurnedAway) {
  serve::AdmissionQueue q(/*capacity=*/1);
  EXPECT_TRUE(q.try_push(serve::PendingQuery{}).ok());

  const Status full = q.try_push(serve::PendingQuery{});
  EXPECT_EQ(full.code(), StatusCode::QueueFull);
  EXPECT_NE(full.detail().find("capacity"), std::string::npos);

  q.close();
  const Status closed = q.try_push(serve::PendingQuery{});
  EXPECT_EQ(closed.code(), StatusCode::ShuttingDown);
}

TEST(StatusApi, SubmitReportsAdmissionOutcomesAsStatus) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 8;
  p.seed = 9;
  const graph::Csr g = graph::rmat_csr(p);
  serve::ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  serve::Server server(g, cfg);

  serve::Admission bad = server.submit(g.num_vertices() + 1);
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.status.code(), StatusCode::InvalidArgument);
  EXPECT_NE(bad.status.detail().find("|V|"), std::string::npos);

  serve::Admission ok = server.submit(0);
  EXPECT_TRUE(ok.accepted);
  EXPECT_TRUE(ok.status.ok());
  server.dispatch_once();
  (void)ok.result.get();
}

}  // namespace
}  // namespace xbfs
