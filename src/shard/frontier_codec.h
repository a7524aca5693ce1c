// Compressed frontier exchange format for the sharded tier.
//
// A frontier slice travels between shards in whichever of two encodings is
// smaller for its density — the classic sparse/dense switch the GPU-cluster
// BFS literature uses for frontier exchange:
//
//   * Bitmap      — the raw words, 8 bytes per 64 vertices.  Wins once the
//                   slice is dense (>~ 1 set bit per 9 vertices).
//   * DeltaVarint — the set positions as LEB128 varints of successive
//                   deltas (first position relative to the slice start).
//                   Sparse frontiers — the long tail of a direction-
//                   optimized BFS — shrink to ~1-2 bytes per vertex.
//
// The encoder picks per slice; the decoder ORs either form back into a
// destination bitmap, so the exchange stays an OR-merge exactly like the
// uncompressed bitmap exchange.  wire_bytes() is what the modelled
// fabric charges; raw_bytes() is the uncompressed cost the compression
// ratio is reported against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xbfs::shard {

enum class FrontierFormat : std::uint8_t {
  Bitmap = 0,
  DeltaVarint = 1,
};

const char* frontier_format_name(FrontierFormat f);

struct EncodedFrontier {
  FrontierFormat format = FrontierFormat::Bitmap;
  std::uint64_t word_begin = 0;  ///< first 64-bit word the slice covers
  std::uint64_t word_count = 0;
  std::uint32_t set_bits = 0;
  std::vector<std::uint8_t> payload;

  /// Modelled bytes on the wire: payload plus the fixed slice header
  /// (format byte + word range + count).
  std::uint64_t wire_bytes() const { return payload.size() + 21; }
  /// Uncompressed cost of the same slice.
  std::uint64_t raw_bytes() const {
    return word_count * sizeof(std::uint64_t);
  }
};

/// LEB128 varint helpers (exposed for tests).
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
/// Decode one varint at `p` (strictly before `end`); returns the byte past
/// the varint, or nullptr on truncated input.
const std::uint8_t* get_varint(const std::uint8_t* p,
                               const std::uint8_t* end, std::uint64_t* out);

/// Encode `word_count` words starting at words[word_begin] (indices into
/// the *global* bitmap array).  Picks the smaller of the two formats.
EncodedFrontier encode_frontier(const std::uint64_t* words,
                                std::uint64_t word_begin,
                                std::uint64_t word_count);

/// OR the encoded slice back into a global bitmap (sized >= the slice's
/// word range).  Returns the number of set bits applied.
std::uint32_t decode_frontier_or(const EncodedFrontier& enc,
                                 std::uint64_t* words);

}  // namespace xbfs::shard
