// D-NDP: the Direct Neighbor Discovery Protocol (paper §V-B).
//
// Four-message handshake between an initiator A and a responder B that share
// at least one non-revoked pool code:
//
//   1. A -> * : {HELLO, ID_A}_{C_i}          (broadcast under all m codes)
//   2. B -> A : {CONFIRM, ID_B}_{C_i}
//   3. A -> B : {ID_A, n_A, f_{K_AB}(ID_A|n_A)}_{C_i}
//   4. B -> A : {ID_B, n_B, f_{K_BA}(ID_B|n_B)}_{C_i}
//
// with K_AB = K_BA the non-interactive ID-based pairwise key. On success
// both sides derive the session spread code C_AB = h_{K_AB}(n_A ^ n_B) and
// record each other as authenticated logical neighbors.
//
// Redundancy design: when x >= 2 codes are shared, all x sub-sessions run
// the full exchange (same nonces, same resulting session code); discovery
// fails only if every sub-session fails. The engine executes the real
// cryptography — nonces, MAC computation/verification, session-code
// derivation — over whichever PhyModel it is given.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/handshake.hpp"
#include "core/jrsnd_node.hpp"
#include "core/messages.hpp"
#include "core/params.hpp"
#include "core/phy_model.hpp"

namespace jrsnd::core {

struct DndpResult {
  bool discovered = false;
  std::optional<CodeId> winning_code;  ///< pool code of the first complete sub-session
  std::uint32_t shared_codes = 0;      ///< x
  std::uint32_t hellos_delivered = 0;  ///< copies of the HELLO B recovered
  std::uint32_t subsessions_completed = 0;
  bool mac_failure = false;  ///< a MAC failed verification (tampering)
  std::uint32_t retransmissions = 0;  ///< retries spent across all sub-sessions
  std::uint32_t timeouts = 0;         ///< attempt timeouts that expired
};

class DndpEngine {
 public:
  /// `redundancy` mirrors the paper's x-fold sub-session design; disabling
  /// it reproduces the naive pick-one-code variant the "intelligent attack"
  /// of §V-B defeats (ablated in bench/ablation_redundancy).
  ///
  /// `retry_seed` seeds the backoff-jitter Rng (used only when
  /// `params.retry` is enabled — the default policy makes the engine
  /// bit-identical to the unhardened one). `clock`, when given, scales the
  /// initiator's perceived timeouts by its local clock rate (fault layer).
  DndpEngine(const Params& params, PhyModel& phy, bool redundancy = true,
             std::uint64_t retry_seed = 0, const HandshakeClock* clock = nullptr);

  /// Runs the handshake with `a` as initiator. Updates both nodes' logical
  /// neighbor tables (and nothing else) on success.
  DndpResult run(NodeState& a, NodeState& b);

 private:
  /// Executes messages 2-4 of one sub-session on code `code`; returns false
  /// if any message is lost or rejected. On success with `outcome` given
  /// (the attempt's first complete sub-session), fills in K_AB and derives
  /// the session code — later sub-sessions would derive the same one.
  struct SubsessionOutcome {
    crypto::SymmetricKey key_ab{};
    BitVector session_code;
  };
  [[nodiscard]] bool run_subsession(NodeState& a, NodeState& b, CodeId code,
                                    const BitVector& nonce_a, const BitVector& nonce_b,
                                    HandshakeStateMachine& hs, DndpResult& result,
                                    SubsessionOutcome* outcome);

  /// One handshake message with the retry discipline: on transmission loss,
  /// waits out the stage timeout, re-arms the sub-session's jamming fate
  /// (each retransmission is a fresh radio event), and retransmits until
  /// delivery or budget exhaustion. With retries disabled this is exactly
  /// one `phy_.transmit` — no extra draws, no extra counters.
  [[nodiscard]] std::optional<BitVector> transmit_with_retry(
      HandshakeStateMachine& hs, NodeId a, NodeId b, CodeId code, NodeId from,
      NodeId to, const TxCode& tx, TxClass cls, const BitVector& payload);

  const Params& params_;
  WireConfig wire_;
  /// Staged early-reject AUTH verification (length -> format -> code -> MAC)
  /// with per-peer key-schedule caching — the handshake-flood hardening.
  /// Decisions are bit-identical to the old decode + verify pair.
  HandshakeVerifier verifier_;
  PhyModel& phy_;
  bool redundancy_;
  Rng retry_rng_;
  const HandshakeClock* clock_;
  std::uint64_t trace_salt_;  ///< retry_seed; keys per-attempt trace ids
  std::uint64_t attempts_ = 0;
  /// Per-attempt scratch: the shared usable codes, and the derive-once K_AB
  /// slot — the initiator's key for the CONFIRM's claimed ID, built on first
  /// use and reused by every later sub-session's MACs, verifies and session
  /// code.
  std::vector<CodeId> shared_;
  std::optional<crypto::PeerKey> slot_;
};

}  // namespace jrsnd::core
