// The historical one-at-a-time AUTH verification path: the in-binary
// equivalence reference for crypto::VerifyQueue (crypto/verify_queue.hpp)
// and the unbatched baseline bench/dos_throughput times it against.
#pragma once

#include <cstdint>
#include <span>

#include "adversary/dos_attacker.hpp"
#include "common/bit_vector.hpp"
#include "crypto/verify_queue.hpp"

namespace jrsnd::crypto {

/// Full BitVector decode (allocating slices), a fresh KeySource::key_for
/// call, raw hmac_sha256, and a truncated-digest compare. Bumps the same
/// per-frame decision counters as VerifyQueue; accept/reject verdicts are
/// bit-identical by construction.
[[nodiscard]] VerifyResult verify_one_shot(const VerifyWire& wire, const BitVector& frame,
                                           std::uint32_t frame_code, std::uint32_t expected_code,
                                           const KeySource& source);

}  // namespace jrsnd::crypto

namespace jrsnd::adversary {

/// The measure_batched_throughput measurement over verify_one_shot (no peer
/// cache, no batching) — the unbatched baseline dos_throughput compares
/// against.
[[nodiscard]] FloodThroughput measure_one_shot_throughput(
    const crypto::VerifyWire& wire, std::span<const FloodFrame> frames,
    const crypto::KeySource& source, std::uint32_t expected_code,
    double min_seconds);

}  // namespace jrsnd::adversary
