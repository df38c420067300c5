// Slice-by-slice reference oracles for the sliding-window scan
// (dsss/sliding_window.hpp): one BitVector window per chip position, shared
// across the candidates, correlated through SpreadCode::correlate. The
// batched scans must return byte-identical SyncHits; tests and
// bench/micro_sync_kernel check that they do.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/bit_vector.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spread_code.hpp"

namespace jrsnd::dsss {

/// Reference oracle for find_first_message: same contract, including the
/// mixed-length precondition (asserts in debug builds, no hit in release).
[[nodiscard]] std::optional<SyncHit> find_first_message_reference(
    const BitVector& buffer, std::span<const SpreadCode> codes, std::size_t message_bits,
    double tau, std::size_t start_offset = 0);

/// Reference oracle for find_all_messages (see find_first_message_reference).
[[nodiscard]] std::vector<SyncHit> find_all_messages_reference(
    const BitVector& buffer, std::span<const SpreadCode> codes, std::size_t message_bits,
    double tau);

}  // namespace jrsnd::dsss
