// auth_flood: a 10:1 attacker:honest handshake flood drained through one
// crypto::VerifyQueue in fixed-size batches — the only workload where the
// reject stages, the 8-lane multi-buffer MAC and a peer cache that hits run.
//
// Closed loop from one thread: each batch is pushed, then drained, before the
// next. A timed iteration drains a 2048-frame corpus 128 times (512 drains),
// so it lasts tens of milliseconds rather than one drain's microseconds. The
// corpus (about 200 KB) stays in the core's private L2, which keeps the
// iteration time from tracking other tenants' pressure on the shared L3.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "adversary/dos_attacker.hpp"
#include "bench.hpp"
#include "core/messages.hpp"
#include "crypto/verify_queue.hpp"
#include "layers.hpp"
#include "obs/metrics_registry.hpp"

namespace perfbench {
namespace {

using namespace jrsnd;

constexpr std::uint64_t kAuthoritySeed = 77;
/// About one Table-I neighborhood (average degree ~21.7).
constexpr std::uint32_t kPeers = 22;
constexpr std::uint32_t kAttackRatio = 10;
constexpr std::size_t kCorpusFrames = 2048;
constexpr std::size_t kPasses = 128;
/// Frames per push-then-drain, as in bench/dos_throughput's timed drains.
constexpr std::size_t kBatch = 512;
constexpr std::size_t kReplayCalls = 4096;

struct Corpus {
  std::unique_ptr<adversary::HandshakeFloodSource> source;
  std::vector<adversary::FloodFrame> frames;
  VerifyCounters expected;  ///< per-pass counter deltas the mix implies
};

class FloodWorkload final : public Workload {
 public:
  explicit FloodWorkload(const ExpectedDigests& expected) : expected_(expected) {
    obs::set_metrics_enabled(true);
    const core::WireConfig wire;  // Table-I widths
    const auto t0 = Clock::now();
    for (const std::uint64_t seed : seeds_) {
      Corpus c;
      c.source = std::make_unique<adversary::HandshakeFloodSource>(wire, kAuthoritySeed, kPeers,
                                                                   seed);
      c.frames = c.source->make_batch(kCorpusFrames, kAttackRatio);
      for (const adversary::FloodFrame& f : c.frames) {
        switch (f.expected_stage) {
          case crypto::VerifyStage::Accept: ++c.expected.accepted; break;
          case crypto::VerifyStage::RejectLength: ++c.expected.reject_length; break;
          case crypto::VerifyStage::RejectFormat: ++c.expected.reject_format; break;
          case crypto::VerifyStage::RejectCode: ++c.expected.reject_code; break;
          case crypto::VerifyStage::RejectMac: ++c.expected.reject_mac; break;
        }
      }
      c.expected.frames = c.frames.size();
      corpora_.push_back(std::move(c));
    }
    provision_ms_ = seconds_between(t0, Clock::now()) * 1e3;
    queue_.emplace(corpora_.front().source->verify_wire());
    queue_->reserve(kBatch);
    out_.reserve(kBatch);
    first_pass_.resize(kCorpusFrames);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const override { return seeds_; }

  [[nodiscard]] Iteration iterate(std::uint64_t seed) override { return drain_loop(seed, nullptr); }

  void traced(const Options& options, Report& report) override {
    Tracer tracer;
    VerifyCounters verify;
    std::vector<double> on_s;
    std::vector<double> off_s;
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      const std::uint64_t seed = seeds_[i];
      on_s.push_back(drain_loop(seed, nullptr).seconds);

      tracer.set_iteration(static_cast<std::uint32_t>(i));
      const VerifyCounters before = VerifyCounters::read();
      const Iteration traced = drain_loop(seed, &tracer);
      verify += VerifyCounters::read() - before;
      ++report.attempted;
      if (!traced.ok) ++report.failed;

      obs::set_metrics_enabled(false);
      off_s.push_back(drain_loop(seed, nullptr).seconds);
      obs::set_metrics_enabled(true);
    }

    const Ledger ledger = summarize(tracer);
    const auto iters = static_cast<double>(seeds_.size());
    LayerValues& v = report.layer;
    v["crypto.provision_ms"] = provision_ms_;
    add_verify_metrics(verify, iters, v);
    v["crypto.push_share"] = ledger.share(SpanName::Push);
    v["crypto.drain_share"] = ledger.share(SpanName::Drain);
    v["drain_us_p50"] = quantile(ledger[SpanName::Drain].durations_s, 0.50) * 1e6;
    v["drain_us_p99"] = quantile(ledger[SpanName::Drain].durations_s, 0.99) * 1e6;
    v["obs.metrics_tax_pct"] = overhead_pct(median(on_s), median(off_s));
    v["trace.overhead_pct"] =
        overhead_pct(median(ledger[SpanName::Iteration].durations_s), median(on_s));
    v["ledger.unattributed_share"] = ledger.unattributed_share();

    // Crypto replays: every peer's handshake toward the flooded receiver.
    const adversary::HandshakeFloodSource& source = *corpora_.front().source;
    std::vector<ReplayPair> pairs;
    for (std::uint32_t peer = 1; peer <= kPeers; ++peer) {
      pairs.push_back({node_id(peer), &source.receiver()});
    }
    ++report.attempted;
    if (!replay_crypto(pairs, core::Params::defaults(), kReplayCalls, v)) ++report.failed;

    if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
      std::fprintf(stderr, "warning: cannot write spans to %s\n", options.trace_out.c_str());
    }
  }

 private:
  Iteration drain_loop(std::uint64_t seed, Tracer* tracer) {
    Iteration it;
    it.seed = seed;
    const auto index = static_cast<std::size_t>(
        std::find(seeds_.begin(), seeds_.end(), seed) - seeds_.begin());
    const Corpus& corpus = corpora_.at(index);
    const crypto::KeySource& keys = corpus.source->key_source();
    const std::uint32_t code = corpus.source->expected_code();
    const VerifyCounters before = VerifyCounters::read();
    std::size_t mismatches = 0;
    const auto t0 = Clock::now();
    {
      const Scope iteration(tracer, SpanName::Iteration);
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::size_t start = 0; start < corpus.frames.size(); start += kBatch) {
          const std::size_t end = std::min(start + kBatch, corpus.frames.size());
          {
            const Scope push(tracer, SpanName::Push);
            for (std::size_t j = start; j < end; ++j) {
              queue_->push(corpus.frames[j].bits, corpus.frames[j].frame_code, code);
            }
          }
          {
            const Scope drain(tracer, SpanName::Drain);
            (void)queue_->drain(keys, out_);
          }
          // Every verdict must be the stage its frame was minted for.
          for (std::size_t j = start; j < end; ++j) {
            const crypto::VerifyResult& r = out_[j - start];
            mismatches += r.stage != corpus.frames[j].expected_stage ? 1U : 0U;
            if (pass == 0) first_pass_[j] = r;
          }
        }
      }
    }
    it.seconds = seconds_between(t0, Clock::now());
    const VerifyCounters delta = VerifyCounters::read() - before;

    // With metrics on, the reject counters must also add up to the mix.
    bool ok = mismatches == 0;
    Digest d;
    for (const crypto::VerifyResult& r : first_pass_) {
      d.add_u64(static_cast<std::uint64_t>(r.stage));
      d.add_u64(r.sender);
    }
    if (obs::metrics_enabled()) {
      const VerifyCounters& e = corpus.expected;
      ok &= delta.frames == e.frames * kPasses && delta.accepted == e.accepted * kPasses &&
            delta.reject_length == e.reject_length * kPasses &&
            delta.reject_format == e.reject_format * kPasses &&
            delta.reject_code == e.reject_code * kPasses &&
            delta.reject_mac == e.reject_mac * kPasses;
    }
    it.digest = d.hex();
    it.ok = ok && expected_.matches("auth_flood", seed, it.digest);
    it.attempts = corpus.expected.accepted * kPasses;  // honest handshakes served
    it.frames = corpus.frames.size() * kPasses;
    return it;
  }

  const ExpectedDigests& expected_;
  std::vector<std::uint64_t> seeds_{20110620, 20110621, 20110622, 20110623};
  std::vector<Corpus> corpora_;
  std::optional<crypto::VerifyQueue> queue_;
  std::vector<crypto::VerifyResult> out_;
  std::vector<crypto::VerifyResult> first_pass_;  ///< verdicts of the last iteration's first pass
  double provision_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_auth_flood(const ExpectedDigests& expected) {
  return std::make_unique<FloodWorkload>(expected);
}

}  // namespace perfbench
