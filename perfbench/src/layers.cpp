#include "layers.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/rng.hpp"
#include "core/handshake.hpp"
#include "crypto/session_code.hpp"

namespace perfbench {

using namespace jrsnd;

/// Keeps replayed results observable (external linkage, so the stores and
/// the calls feeding them cannot be elided).
std::uint64_t g_replay_sink = 0;

VerifyCounters VerifyCounters::read() {
  VerifyCounters c;
  c.frames = counter("crypto.verify.frames");
  c.accepted = counter("crypto.verify.accepted");
  c.reject_length = counter("crypto.reject.length");
  c.reject_format = counter("crypto.reject.format");
  c.reject_code = counter("crypto.reject.code");
  c.reject_mac = counter("crypto.reject.mac");
  c.batches = counter("crypto.verify.batches");
  c.cache_hits = counter("crypto.verify.peer_cache.hits");
  c.cache_misses = counter("crypto.verify.peer_cache.misses");
  c.midstate_builds = counter("crypto.hmac.midstate.builds");
  return c;
}

VerifyCounters VerifyCounters::operator-(const VerifyCounters& b) const {
  VerifyCounters d;
  d.frames = frames - b.frames;
  d.accepted = accepted - b.accepted;
  d.reject_length = reject_length - b.reject_length;
  d.reject_format = reject_format - b.reject_format;
  d.reject_code = reject_code - b.reject_code;
  d.reject_mac = reject_mac - b.reject_mac;
  d.batches = batches - b.batches;
  d.cache_hits = cache_hits - b.cache_hits;
  d.cache_misses = cache_misses - b.cache_misses;
  d.midstate_builds = midstate_builds - b.midstate_builds;
  return d;
}

VerifyCounters& VerifyCounters::operator+=(const VerifyCounters& o) {
  frames += o.frames;
  accepted += o.accepted;
  reject_length += o.reject_length;
  reject_format += o.reject_format;
  reject_code += o.reject_code;
  reject_mac += o.reject_mac;
  batches += o.batches;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  midstate_builds += o.midstate_builds;
  return *this;
}

void add_verify_metrics(const VerifyCounters& d, double iterations, LayerValues& out) {
  const auto frames = static_cast<double>(d.frames);
  out["crypto.verify.frames"] = ratio(frames, iterations);
  out["crypto.verify.peer_cache.hit_ratio"] =
      ratio(static_cast<double>(d.cache_hits), static_cast<double>(d.cache_hits + d.cache_misses));
  out["crypto.hmac.midstate.builds_per_verify"] = ratio(static_cast<double>(d.midstate_builds), frames);
  out["crypto.reject.length_share"] = ratio(static_cast<double>(d.reject_length), frames);
  out["crypto.reject.format_share"] = ratio(static_cast<double>(d.reject_format), frames);
  out["crypto.reject.code_share"] = ratio(static_cast<double>(d.reject_code), frames);
  out["crypto.reject.mac_share"] = ratio(static_cast<double>(d.reject_mac), frames);
  out["crypto.verify.accept_share"] = ratio(static_cast<double>(d.accepted), frames);
  out["crypto.verify.frames_per_batch"] = ratio(frames, static_cast<double>(d.batches));
}

core::WireConfig wire_of(const core::Params& p) {
  core::WireConfig wire;
  wire.l_t = p.l_t;
  wire.l_id = p.l_id;
  wire.l_n = p.l_n;
  wire.l_mac = p.l_mac;
  wire.l_nu = p.l_nu;
  wire.l_sig = p.l_sig;
  return wire;
}

namespace {

BitVector random_bits(Rng& rng, std::uint32_t bits) {
  BitVector v(bits);
  for (std::uint32_t i = 0; i < bits; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

template <typename F>
double per_call_us(std::size_t calls, F&& body) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) body(i);
  return seconds_between(t0, Clock::now()) * 1e6 / static_cast<double>(calls);
}

}  // namespace

bool replay_crypto(std::span<const ReplayPair> pairs, const core::Params& params,
                   std::size_t calls, LayerValues& out) {
  if (pairs.empty() || calls == 0) return true;
  const core::WireConfig wire = wire_of(params);
  Rng rng(0x5EEDC0DEULL);
  std::vector<crypto::SymmetricKey> keys(calls);
  std::vector<BitVector> nonce_a(calls);
  std::vector<BitVector> nonce_b(calls);
  std::vector<BitVector> frames(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    nonce_a[i] = random_bits(rng, params.l_n);
    nonce_b[i] = random_bits(rng, params.l_n);
  }
  const auto pair = [&](std::size_t i) -> const ReplayPair& { return pairs[i % pairs.size()]; };

  out["crypto.pair_key_us"] = per_call_us(calls, [&](std::size_t i) {
    keys[i] = pair(i).receiver->shared_key(pair(i).sender);
    g_replay_sink += keys[i][0];
  });
  out["crypto.auth_make_us"] = per_call_us(calls, [&](std::size_t i) {
    frames[i] = core::AuthMessage::make(pair(i).sender, nonce_a[i], keys[i], wire).encode(wire);
    g_replay_sink += frames[i].size();
  });
  core::HandshakeVerifier verifier(wire);
  std::size_t accepted = 0;
  out["crypto.auth_verify_us"] = per_call_us(calls, [&](std::size_t i) {
    const core::AuthVerdict v =
        verifier.verify_auth(frames[i], code_id(0), code_id(0), *pair(i).receiver);
    accepted += v.accepted() ? 1U : 0U;
  });
  out["crypto.session_code_us"] = per_call_us(calls, [&](std::size_t i) {
    g_replay_sink += crypto::derive_session_code(keys[i], nonce_a[i], nonce_b[i], params.N).size();
  });
  return accepted == calls;
}

void replay_intersection(std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
                         const std::vector<core::NodeState>& nodes, LayerValues& out) {
  if (pairs.empty()) return;
  std::vector<CodeId> shared;
  out["predist.intersect_us"] = per_call_us(pairs.size(), [&](std::size_t i) {
    const std::vector<CodeId> a = nodes[pairs[i].first].usable_codes();
    const std::vector<CodeId> b = nodes[pairs[i].second].usable_codes();
    shared.clear();
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(shared));
    g_replay_sink += shared.size();
  });
}

double resident_mb() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
