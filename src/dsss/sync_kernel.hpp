// Word-aligned correlation kernel for the sliding-window scan (paper §V-B).
//
// The paper's processing-time model t_p = rho * N * m * f makes the chip-level
// scan the dominant cost of JR-SND: every chip position of the f-chip buffer
// is correlated against each of the receiver's m candidate N-chip codes. The
// naive implementation materializes a heap-allocated window slice per
// (position, code) pair; this kernel instead correlates *in place* against the
// buffer's packed 64-bit words via XOR + popcount.
//
// Two entry points, by amortization regime:
//
//   * hamming_at / correlate_at — one-shot: aligns the buffer window to the
//     code with two word reads and an inline shift per word. Zero allocation;
//     right for de-spreading a handful of bits at a known offset.
//
//   * BatchShiftTable — the library's one correlator table. It precomputes
//     a group of same-length codes at all 64 possible bit alignments in
//     struct-of-arrays order: for every alignment s and word index k, the
//     group's m code words sit contiguously, so for chip offset i the scan
//     picks alignment block i % 64, loads each buffer word from i / 64 on
//     once, and XOR+popcounts it against every code in the group with no
//     per-window bit shifting. Only the first and last buffer words carry
//     bits outside the window; their masks are two ALU ops from s. The inner
//     loop runs on one of several kernel backends selected once at startup
//     (CPUID probe, JRSND_SIMD override): AVX-512 VPOPCNTDQ (8 codes per
//     vector op), AVX2 (vpshufb nibble-LUT popcount + psadbw, 4 codes per
//     vector), NEON vcnt on aarch64, or the portable scalar
//     __builtin_popcountll path. A strided single-lane read serves despread
//     once the scan has locked onto one code.
//
// Every path accumulates exact integer Hamming distances, so their
// normalized correlations (N - 2h) / N are bit-identical doubles on every
// backend — the sliding-window results do not depend on which path ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_vector.hpp"
#include "dsss/correlator.hpp"

namespace jrsnd::dsss {

class SpreadCode;  // dsss/spread_code.hpp

/// Kernel backend for the batched correlator. Numeric values are published
/// through the `dsss.simd.backend` gauge (mirroring `prof.backend`).
enum class SimdBackend : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

[[nodiscard]] const char* simd_backend_name(SimdBackend backend) noexcept;

/// Whether this process can run `backend` (compiled in AND supported by the
/// CPU/OS per common/cpu_features.hpp). kScalar is always available.
[[nodiscard]] bool simd_backend_supported(SimdBackend backend) noexcept;

/// The backend the batched kernel dispatches to, resolved once: the
/// JRSND_SIMD environment override (scalar|avx2|avx512|neon) when set and
/// supported, otherwise the best the hardware admits. Resolution publishes
/// the `dsss.simd.backend` gauge.
[[nodiscard]] SimdBackend simd_backend();

/// Forces the dispatch backend (tests, benches). Unsupported requests clamp
/// to the best supported backend at or below the request (kNeon requests on
/// x86 clamp to kScalar). Updates the `dsss.simd.backend` gauge and returns
/// the backend actually installed.
SimdBackend set_simd_backend(SimdBackend backend);

/// Hamming distance between `code` and the window buffer[bit_offset,
/// bit_offset + code.size()), computed against packed words with no
/// allocation. Precondition: bit_offset + code.size() <= buffer.size().
[[nodiscard]] std::size_t hamming_at(const BitVector& buffer, std::size_t bit_offset,
                                     const BitVector& code);

/// Normalized correlation in [-1, +1] of `code` against the window at
/// `bit_offset`: (N - 2 * hamming) / N. Same precondition as hamming_at.
[[nodiscard]] double correlate_at(const BitVector& buffer, std::size_t bit_offset,
                                  const BitVector& code);

/// A *group* of same-length candidate codes precomputed at all 64 word
/// alignments in struct-of-arrays order: rows[(s * stride + k) * lanes + c]
/// holds code c's word k at alignment s, so the words the scan XORs against
/// one buffer word are contiguous and a single buffer load feeds every code
/// in the group. Lanes are padded to a multiple of 8 (zero rows) so the
/// widest vector backend never reads past the allocation; padding lanes
/// produce unspecified hamming values and must be ignored. Each code costs
/// 64 * ceil((63 + N) / 64) words (~4.6 KiB at N = 512).
class BatchShiftTable {
 public:
  /// Empty group (size() == 0; hamming_all is a no-op).
  BatchShiftTable() = default;

  /// Batches `codes`, lane c holding codes[c]. Precondition: uniform
  /// lengths (asserted).
  explicit BatchShiftTable(std::span<const SpreadCode> codes);

  [[nodiscard]] std::size_t size() const noexcept { return m_; }
  [[nodiscard]] bool empty() const noexcept { return m_ == 0; }
  [[nodiscard]] std::size_t length() const noexcept { return length_; }

  /// Lanes the kernels actually write: size() rounded up to 8. Output spans
  /// handed to hamming_all must cover this many entries.
  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_; }

  /// Hamming distance of *every* code in the group against the window at
  /// `bit_offset`, written to out[0, size()) (out[size(), lane_count()) is
  /// scratch). One pass over the buffer words, dispatched to the active
  /// SIMD backend; every backend writes identical integers. Preconditions:
  /// bit_offset + length() <= buffer.size(), out.size() >= lane_count().
  void hamming_all(const BitVector& buffer, std::size_t bit_offset,
                   std::span<std::uint64_t> out) const;

  /// Single-lane hamming distance — the strided SoA read the despread path
  /// uses once a scan has locked onto one code. Identical integers to
  /// hamming_all's entry for that lane.
  [[nodiscard]] std::size_t hamming_lane(std::size_t lane, const BitVector& buffer,
                                         std::size_t bit_offset) const;

  /// (N - 2 * hamming_lane) / N, identical to correlate_at on the lane's code.
  [[nodiscard]] double correlate_lane(std::size_t lane, const BitVector& buffer,
                                      std::size_t bit_offset) const;

 private:
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t kLaneAlign = 8;  ///< AVX-512: 8 x 64-bit lanes

  std::size_t length_ = 0;
  std::size_t m_ = 0;
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;  ///< words per alignment row (worst case, s = 63)
  /// SoA rows at [(s * stride_ + k) * lanes_ + c], starting align_offset_
  /// words into the vector so the lane blocks sit on 64-byte boundaries
  /// (vector loads never straddle cache lines). The kernels still use
  /// unaligned-load instructions, so a stale offset (e.g. after a copy
  /// relocates the vector) costs speed, never correctness.
  std::vector<std::uint64_t> rows_;
  std::size_t align_offset_ = 0;

  [[nodiscard]] const std::uint64_t* row_base() const noexcept {
    return rows_.data() + align_offset_;
  }
};

}  // namespace jrsnd::dsss
