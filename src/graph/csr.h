// Compressed Sparse Row graph: the storage format XBFS traverses.
//
// Matching the paper's memory-efficiency model (Sec. V-F), row offsets are
// 8-byte edge indices and adjacency entries are 4-byte vertex ids, so a BFS
// that reads every vertex twice and every edge once moves 16|V| + 4|E| bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace xbfs::graph {

using vid_t = std::uint32_t;  ///< vertex id (4 bytes, as in the paper)
using eid_t = std::uint64_t;  ///< edge index (8 bytes, as in the paper)

class Csr {
 public:
  Csr() = default;
  /// Takes ownership of prebuilt arrays; offsets.size() must be n+1 and
  /// offsets.back() must equal cols.size().
  Csr(std::vector<eid_t> offsets, std::vector<vid_t> cols);

  vid_t num_vertices() const { return n_; }
  eid_t num_edges() const { return m_; }  ///< directed adjacency entries
  bool empty() const { return n_ == 0; }

  vid_t degree(vid_t v) const {
    return static_cast<vid_t>(offsets_[v + 1] - offsets_[v]);
  }
  std::span<const vid_t> neighbors(vid_t v) const {
    return {cols_.data() + offsets_[v], degree(v)};
  }
  /// Visit v's neighbors in adjacency order: the neighbor view Csr shares
  /// with dyn::DeltaCsr, so host oracles and validators take either graph.
  template <typename F>
  void for_each_neighbor(vid_t v, F&& f) const {
    for (const vid_t w : neighbors(v)) f(w);
  }
  std::span<vid_t> mutable_neighbors(vid_t v) {
    return {cols_.data() + offsets_[v], degree(v)};
  }

  const std::vector<eid_t>& offsets() const { return offsets_; }
  const std::vector<vid_t>& cols() const { return cols_; }

  double avg_degree() const {
    return n_ == 0 ? 0.0 : static_cast<double>(m_) / n_;
  }
  vid_t max_degree() const;

  /// Structural validation: monotone offsets, in-range adjacency entries.
  /// Returns an empty string when valid, else a diagnostic.
  std::string validate() const;

  /// Deterministic 64-bit structural fingerprint (FNV-1a over n, m, the
  /// offsets array and a bounded sample of adjacency entries), with the
  /// graph's dynamic `epoch` mixed into the hash.  Used as the graph half
  /// of serving-cache keys, so results computed against one graph are
  /// never returned for another.
  ///
  /// Epoch-mixing contract (docs/dynamic.md):
  ///   - equal structure + equal epoch  => equal fingerprint;
  ///   - any applied `dyn::EdgeBatch` bumps the owning store's epoch, so
  ///     the fingerprint changes even when the sampled adjacency entries
  ///     happen to miss the touched edges — serving-cache keys invalidate
  ///     on *every* update, not just structurally visible ones.
  /// Static graphs use the default epoch 0 and keep their old values.
  std::uint64_t fingerprint(std::uint64_t epoch = 0) const;

  /// Bytes of the CSR payload (the paper's "Data size" column).
  std::uint64_t payload_bytes() const {
    return offsets_.size() * sizeof(eid_t) + cols_.size() * sizeof(vid_t);
  }

 private:
  vid_t n_ = 0;
  eid_t m_ = 0;
  std::vector<eid_t> offsets_;  // n+1
  std::vector<vid_t> cols_;     // m
};

/// Continue a Csr::fingerprint-style FNV-1a hash with an extra salt.  The
/// sharded serving tier mixes the partition layout hash
/// (dist::Partition1D::layout_hash) into cache keys this way, giving the
/// same self-invalidation contract for re-shards that epoch mixing gives
/// for update batches: equal fp + equal salt => equal key; any salt change
/// perturbs the key even when the structural fingerprint is unchanged.
inline std::uint64_t mix_fingerprint(std::uint64_t fp, std::uint64_t salt) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
  std::uint64_t h = fp;
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (salt & 0xff)) * kFnvPrime;
    salt >>= 8;
  }
  return h;
}

}  // namespace xbfs::graph
