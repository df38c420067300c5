#include "reference/sync_scan.hpp"

#include <cassert>
#include <cmath>

#include "dsss/spreader.hpp"

namespace jrsnd::dsss {

std::optional<SyncHit> find_first_message_reference(const BitVector& buffer,
                                                    std::span<const SpreadCode> codes,
                                                    std::size_t message_bits, double tau,
                                                    std::size_t start_offset) {
  if (codes.empty() || message_bits == 0) return std::nullopt;
  assert(uniform_code_lengths(codes) &&
         "find_first_message_reference: mixed candidate code lengths");
  if (!uniform_code_lengths(codes)) return std::nullopt;
  const std::size_t n = codes[0].length();
  const std::size_t needed = message_bits * n;
  if (buffer.size() < needed) return std::nullopt;

  for (std::size_t offset = start_offset; offset + needed <= buffer.size(); ++offset) {
    // One slice per window position, shared across the m candidates — the
    // slice is offset-dependent, not code-dependent.
    const BitVector window = buffer.slice(offset, n);
    for (std::size_t c = 0; c < codes.size(); ++c) {
      const double corr = codes[c].correlate(window);
      if (std::abs(corr) >= tau) {
        SyncHit hit;
        hit.code_index = c;
        hit.chip_offset = offset;
        hit.message = despread(buffer, offset, message_bits, codes[c], tau);
        return hit;
      }
    }
  }
  return std::nullopt;
}

std::vector<SyncHit> find_all_messages_reference(const BitVector& buffer,
                                                 std::span<const SpreadCode> codes,
                                                 std::size_t message_bits, double tau) {
  std::vector<SyncHit> hits;
  if (codes.empty() || message_bits == 0) return hits;
  assert(uniform_code_lengths(codes) &&
         "find_all_messages_reference: mixed candidate code lengths");
  if (!uniform_code_lengths(codes)) return hits;
  const std::size_t n = codes[0].length();
  const std::size_t needed = message_bits * n;

  std::size_t offset = 0;
  while (offset + needed <= buffer.size()) {
    bool found = false;
    const BitVector window = buffer.slice(offset, n);
    for (std::size_t c = 0; c < codes.size(); ++c) {
      const double corr = codes[c].correlate(window);
      if (std::abs(corr) >= tau) {
        SyncHit hit;
        hit.code_index = c;
        hit.chip_offset = offset;
        hit.message = despread(buffer, offset, message_bits, codes[c], tau);
        hits.push_back(std::move(hit));
        offset += needed;  // resume after the recovered message
        found = true;
        break;
      }
    }
    if (!found) ++offset;
  }
  return hits;
}

}  // namespace jrsnd::dsss
