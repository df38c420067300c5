// Cached per-codebook scan precomputation (ROADMAP: transmit hot path).
//
// The sliding-window scan's setup cost — the batched correlator table over
// the candidate codes — is a pure function of the codebook, yet a scan over
// a span of codes rebuilds it on every call: once per transmission *and once
// more per recover-and-rescan iteration*, even though a receiver's codebook
// changes only when the authority rotates codes. PreparedCodebook owns a
// codebook snapshot and its one BatchShiftTable, built eagerly by assign()
// and rebuilt only when the codes actually change; the scan entry points
// that take a PreparedCodebook (dsss/sliding_window.hpp) then run with zero
// per-call setup.
//
// Thread safety: snapshot semantics. Const access never mutates, so any
// number of PR-2 thread-pool workers may scan one shared PreparedCodebook
// concurrently with no lock. Mutation (assign / assign_if_changed) is NOT
// synchronized against concurrent readers — build the codebook, then share
// it read-only, exactly how the simulation engines use per-run worlds.
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/sync_kernel.hpp"

namespace jrsnd::dsss {

class PreparedCodebook {
 public:
  PreparedCodebook() = default;
  explicit PreparedCodebook(std::vector<SpreadCode> codes) { assign(std::move(codes)); }

  /// Replaces the codebook and rebuilds its table (left empty when the
  /// lengths are mixed: scans refuse such a codebook anyway).
  void assign(std::vector<SpreadCode> codes);

  /// assign() only if `codes` differs from the current snapshot. The
  /// comparison is word-level over the packed chip patterns and allocates
  /// nothing, so calling this once per transmission (as ChipPhy does for the
  /// monitored-code scan) costs a few word compares in the steady state.
  /// Returns true when the codebook changed (the table was rebuilt).
  bool assign_if_changed(std::span<const SpreadCode> codes);

  [[nodiscard]] std::span<const SpreadCode> codes() const noexcept { return codes_; }
  [[nodiscard]] std::size_t size() const noexcept { return codes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return codes_.empty(); }

  /// Chip length shared by every code, or 0 when empty.
  [[nodiscard]] std::size_t code_length() const noexcept {
    return codes_.empty() ? 0 : codes_[0].length();
  }

  /// True when every code shares codes()[0].length() — the scan stride
  /// precondition, validated once at assign() instead of once per scan.
  [[nodiscard]] bool uniform_lengths() const noexcept { return uniform_; }

  /// The batched correlator table over codes(), lane c holding codes()[c].
  /// Empty when the codebook is empty or has mixed lengths.
  [[nodiscard]] const BatchShiftTable& table() const noexcept { return table_; }

  /// table() as a span of zero (empty table) or one entries — the form
  /// perfbench's chip workload reads.
  [[nodiscard]] std::span<const BatchShiftTable> batch_tables() const noexcept {
    return {&table_, table_.empty() ? 0U : 1U};
  }

 private:
  std::vector<SpreadCode> codes_;
  bool uniform_ = true;
  BatchShiftTable table_;
};

/// Per-receiver PreparedCodebook store for Codebook callbacks: test worlds
/// and tools look up (or create) the prepared form of node `id`'s codebook
/// and refresh it only when the underlying codes changed. Entries are
/// pointer-stable, so the returned references survive later lookups.
/// The map itself is mutex-guarded; concurrent mutation of one *entry*
/// follows PreparedCodebook's snapshot rules (single writer).
class NodeCodebookCache {
 public:
  /// The prepared codebook for `id`, refreshed from `codes` if it changed.
  const PreparedCodebook& prepare(NodeId id, std::span<const SpreadCode> codes);

  /// The (possibly empty) entry for `id`, creating it on first use.
  PreparedCodebook& entry(NodeId id);

 private:
  std::unordered_map<NodeId, PreparedCodebook> entries_;
  std::mutex mutex_;
};

}  // namespace jrsnd::dsss
