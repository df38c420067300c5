#include "reference/shift_table.hpp"

#include <algorithm>

namespace jrsnd::dsss {

ShiftTable::ShiftTable(const SpreadCode& code)
    : length_(code.length()), stride_((kWordBits - 1 + length_ + kWordBits - 1) / kWordBits) {
  rows_.resize(kWordBits * stride_);
  for (std::size_t s = 0; s < kWordBits; ++s) {
    // Row s is the chip pattern behind s zero chips, zero-padded to stride_
    // words — built through BitVector's own packing rather than word shifts,
    // so the reference shares no shifting code with the batched kernel.
    BitVector shifted(s);
    shifted.append(code.bits());
    const std::span<const std::uint64_t> words = shifted.words();
    std::copy(words.begin(), words.end(), rows_.begin() + static_cast<std::ptrdiff_t>(s * stride_));
  }
}

std::vector<ShiftTable> build_shift_tables(std::span<const SpreadCode> codes) {
  std::vector<ShiftTable> tables;
  tables.reserve(codes.size());
  for (const SpreadCode& code : codes) tables.emplace_back(code);
  return tables;
}

}  // namespace jrsnd::dsss
