// Single-code correlator table: the per-code reference the batched kernel
// (dsss/sync_kernel.hpp) is checked against, and the single-code baseline
// bench/micro_sync_kernel times it against.
//
// ShiftTable precomputes one code's words at all 64 possible bit
// alignments, so correlating the window at chip offset i picks row i % 64
// and XOR/popcounts it directly against buffer words starting at i / 64.
// Only the row's first and last words carry buffer bits outside the window;
// their masks are two ALU ops from s, so no mask rows are stored and the
// whole table is 64 * ceil((63 + N) / 64) words (~4.7 KiB at N = 512).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_vector.hpp"
#include "dsss/correlator.hpp"
#include "dsss/spread_code.hpp"

namespace jrsnd::dsss {

/// A candidate code precomputed at all 64 word alignments. Row s holds the
/// code's chips shifted to start at bit s of a word boundary; correlating
/// the window at chip offset i reduces to XOR + popcount of row i % 64
/// against the buffer words from i / 64 on, with only the two edge words
/// masked (their masks derive from s alone).
class ShiftTable {
 public:
  explicit ShiftTable(const SpreadCode& code);

  [[nodiscard]] std::size_t length() const noexcept { return length_; }

  /// Hamming distance to the window at `bit_offset`; allocation-free,
  /// shift-free. Precondition: bit_offset + length() <= buffer.size().
  /// Defined inline: this is the body of the baseline scan's hot loop.
  [[nodiscard]] std::size_t hamming(const BitVector& buffer, std::size_t bit_offset) const {
    const std::size_t s = bit_offset % kWordBits;
    const std::uint64_t* buf = buffer.words().data() + bit_offset / kWordBits;
    const std::uint64_t* row = rows_.data() + s * stride_;
    const std::size_t nw = (s + length_ + kWordBits - 1) / kWordBits;
    // Bits of the first word before s and of the last word past the code are
    // live buffer bits outside the window; the rows hold zeros there, so the
    // two edge masks silence them. Interior words need no mask.
    const std::uint64_t first = ~std::uint64_t{0} >> s;
    const std::size_t valid = (s + length_ - 1) % kWordBits + 1;
    const std::uint64_t last = ~std::uint64_t{0} << (kWordBits - valid);
    if (nw == 1) {
      return static_cast<std::size_t>(std::popcount((buf[0] ^ row[0]) & first & last));
    }
    std::size_t h = static_cast<std::size_t>(std::popcount((buf[0] ^ row[0]) & first));
    for (std::size_t k = 1; k + 1 < nw; ++k) {
      h += static_cast<std::size_t>(std::popcount(buf[k] ^ row[k]));
    }
    h += static_cast<std::size_t>(std::popcount((buf[nw - 1] ^ row[nw - 1]) & last));
    return h;
  }

  /// (N - 2 * hamming) / N, identical to SpreadCode::correlate on a slice.
  [[nodiscard]] double correlate(const BitVector& buffer, std::size_t bit_offset) const {
    return correlation_from_hamming(length_, hamming(buffer, bit_offset));
  }

 private:
  static constexpr std::size_t kWordBits = 64;

  std::size_t length_ = 0;
  std::size_t stride_ = 0;  ///< words per alignment row (worst case, s = 63)
  std::vector<std::uint64_t> rows_;  ///< 64 rows of stride_ words: code >> s
};

/// One ShiftTable per candidate code.
[[nodiscard]] std::vector<ShiftTable> build_shift_tables(std::span<const SpreadCode> codes);

}  // namespace jrsnd::dsss
