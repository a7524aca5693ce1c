// The CSR builder's memory contract (graph/builder.h), checked by counting
// live heap bytes.  This binary replaces the global operator new/delete
// with counting versions, so the peak is exact and deterministic: no RSS
// sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "graph/builder.h"
#include "graph/rmat.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

// Each block carries its size and the pointer malloc returned, just in
// front of the address handed out.
struct Head {
  void* raw;
  std::size_t size;
};

void* counted_new(std::size_t size, std::size_t align) {
  align = std::max(align, alignof(std::max_align_t));
  void* raw = std::malloc(size + sizeof(Head) + align);
  if (raw == nullptr) throw std::bad_alloc();
  const auto user = (reinterpret_cast<std::uintptr_t>(raw) + sizeof(Head) +
                     align - 1) & ~(std::uintptr_t{align} - 1);
  Head* head = reinterpret_cast<Head*>(user) - 1;
  head->raw = raw;
  head->size = size;
  const std::int64_t live =
      g_live.fetch_add(static_cast<std::int64_t>(size)) +
      static_cast<std::int64_t>(size);
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return reinterpret_cast<void*>(user);
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  Head* head = static_cast<Head*>(p) - 1;
  g_live.fetch_sub(static_cast<std::int64_t>(head->size));
  std::free(head->raw);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n, 0); }
void* operator new[](std::size_t n) { return counted_new(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  counted_delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_delete(p);
}

namespace xbfs::graph {
namespace {

// Allocator bookkeeping and the like; the contract's terms are exact.
constexpr std::int64_t kSlackBytes = 4096;

TEST(BuildMemory, PeakIsTheEdgeListPlusOneColsArrayAndTwoOffsetArrays) {
  RmatParams rp;
  rp.scale = 13;
  rp.edge_factor = 16;
  rp.seed = 1;
  std::vector<Edge> edges = rmat_edges(rp);
  const vid_t n = vid_t{1} << rp.scale;
  const auto edge_bytes =
      static_cast<std::int64_t>(edges.capacity() * sizeof(Edge));
  // Every entry the scatter writes: both directions of each non-loop edge.
  const auto entries = static_cast<std::int64_t>(
      2 * std::count_if(edges.begin(), edges.end(),
                        [](const Edge& e) { return e.u != e.v; }));
  const std::int64_t offsets_bytes =
      (static_cast<std::int64_t>(n) + 1) * std::int64_t{sizeof(eid_t)};
  const std::int64_t bound = edge_bytes +
                             entries * std::int64_t{sizeof(vid_t)} +
                             2 * offsets_bytes + kSlackBytes;

  // The edge list moves into the builder, so it is part of what the builder
  // holds; everything else live before the call is not.
  const std::int64_t outside = g_live.load() - edge_bytes;
  g_peak.store(g_live.load());
  const Csr g = build_csr(n, std::move(edges));
  const std::int64_t peak = g_peak.load() - outside;
  const std::int64_t kept = g_live.load() - outside;

  RecordProperty("peak_bytes", std::to_string(peak));
  RecordProperty("bound_bytes", std::to_string(bound));
  EXPECT_LE(peak, bound) << "edge list " << edge_bytes << " B, entries "
                         << entries << ", n " << n;
  // A kept graph holds exactly its payload: no spare capacity in cols.
  EXPECT_EQ(kept, static_cast<std::int64_t>(g.payload_bytes()));
  EXPECT_TRUE(g.validate().empty()) << g.validate();
}

}  // namespace
}  // namespace xbfs::graph
