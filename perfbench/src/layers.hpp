// Per-layer measurement helpers shared by the workloads: a span-recording
// PhyModel decorator, counter deltas of the verification pipeline, and
// replays that time single public calls of a layer on a workload's own data.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/jrsnd_node.hpp"
#include "core/messages.hpp"
#include "core/params.hpp"
#include "core/phy_model.hpp"
#include "crypto/ibc.hpp"

namespace perfbench {

/// Forwards every call to `inner` unchanged, wrapping each in a span and
/// counting deliveries. A null tracer only counts.
class TimingPhy final : public jrsnd::core::PhyModel {
 public:
  TimingPhy(jrsnd::core::PhyModel& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  void begin_subsession(jrsnd::NodeId a, jrsnd::NodeId b, jrsnd::CodeId code) override {
    const Scope span(tracer_, SpanName::PhyBegin);
    inner_.begin_subsession(a, b, code);
  }

  [[nodiscard]] std::optional<jrsnd::BitVector> transmit(jrsnd::NodeId from, jrsnd::NodeId to,
                                                         jrsnd::core::TxCode code,
                                                         jrsnd::core::TxClass cls,
                                                         const jrsnd::BitVector& payload) override {
    const Scope span(tracer_, SpanName::PhyTransmit);
    auto rx = inner_.transmit(from, to, code, cls, payload);
    ++transmits_;
    if (rx) ++delivered_;
    return rx;
  }

  [[nodiscard]] std::uint64_t transmits() const noexcept { return transmits_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  jrsnd::core::PhyModel& inner_;
  Tracer* tracer_;
  std::uint64_t transmits_ = 0;
  std::uint64_t delivered_ = 0;
};

/// The verification pipeline's counters, read from the process registry.
struct VerifyCounters {
  std::uint64_t frames = 0;
  std::uint64_t accepted = 0;
  std::uint64_t reject_length = 0;
  std::uint64_t reject_format = 0;
  std::uint64_t reject_code = 0;
  std::uint64_t reject_mac = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t midstate_builds = 0;

  [[nodiscard]] static VerifyCounters read();
  [[nodiscard]] VerifyCounters operator-(const VerifyCounters& base) const;
  VerifyCounters& operator+=(const VerifyCounters& other);
};

/// crypto.verify.* / crypto.reject.* / crypto.hmac.* per-layer metrics from a
/// counter delta covering `iterations` iterations.
void add_verify_metrics(const VerifyCounters& delta, double iterations, LayerValues& out);

/// One replayed handshake direction: `sender` authenticates to `receiver`.
struct ReplayPair {
  jrsnd::NodeId sender;
  const jrsnd::crypto::IbcPrivateKey* receiver;
};

/// Times IbcPrivateKey::shared_key, AuthMessage::make+encode,
/// HandshakeVerifier::verify_auth and derive_session_code over `pairs`
/// (cycled to `calls` calls each). Returns false when a replayed AUTH frame
/// is not accepted — a broken pipeline, counted as a failed check.
bool replay_crypto(std::span<const ReplayPair> pairs, const jrsnd::core::Params& params,
                   std::size_t calls, LayerValues& out);

/// Times both usable_codes() calls plus the sorted intersection over `pairs`.
void replay_intersection(std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
                         const std::vector<jrsnd::core::NodeState>& nodes, LayerValues& out);

[[nodiscard]] jrsnd::core::WireConfig wire_of(const jrsnd::core::Params& params);

/// 100 * (a / b - 1), the relative cost of `a` over `b` in percent.
[[nodiscard]] inline double overhead_pct(double a, double b) {
  return b > 0.0 ? 100.0 * (a / b - 1.0) : 0.0;
}

/// Current resident set size in MiB (/proc/self/statm).
[[nodiscard]] double resident_mb();

}  // namespace perfbench
