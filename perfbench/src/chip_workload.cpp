// chip_dndp: D-NDP over every neighbor pair of a small world on the
// chip-accurate PHY — the only workload where the dsss and ecc layers run
// (spread, channel, batched sync scan, despread, RS errata decode).
//
// The world (code pool, placement, compromise, receiver codebooks) is built
// once in set-up; each timed iteration is one pass over every pair with fresh
// node state, PHY randomness and initiator order drawn from the pass seed.
#include <cstdio>
#include <memory>
#include <optional>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "bench.hpp"
#include "core/chip_phy.hpp"
#include "core/dndp.hpp"
#include "dsss/chip_channel.hpp"
#include "dsss/prepared_codebook.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spreader.hpp"
#include "ecc/ecc_codec.hpp"
#include "layers.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/field.hpp"
#include "sim/mobility.hpp"
#include "sim/topology.hpp"

namespace perfbench {
namespace {

using namespace jrsnd;

constexpr std::uint64_t kWorldSeed = 20110620;
constexpr std::size_t kReplayCalls = 256;

/// A world small enough for a chip-level pass of about 0.3 s, at the paper's
/// N = 512 chips and tau: 50 nodes with 20 codes each, 5 holders per code
/// (a 200-code pool), 1 compromised node, in a 520 m field. Short passes give
/// a run many samples, so its fastest one rarely coincides with host noise.
/// l and q shrink with n so the jammer still hits about 3% of chip messages
/// (121 of ~4,240 per pass), as in a 150-node world with l=10 and q=2.
core::Params chip_params() {
  core::Params p = core::Params::defaults();
  p.n = 50;
  p.m = 20;
  p.l = 5;
  p.q = 1;
  p.field_width = 520.0;
  p.field_height = 520.0;
  return p;
}

class ChipWorkload final : public Workload {
 public:
  explicit ChipWorkload(const ExpectedDigests& expected)
      : params_(chip_params()), ibc_(kWorldSeed + 1), expected_(expected) {
    obs::set_metrics_enabled(true);
    Rng root(kWorldSeed);
    auto t0 = Clock::now();
    authority_.emplace(params_.predist(), root.split());
    authority_ms_ = seconds_between(t0, Clock::now()) * 1e3;

    t0 = Clock::now();
    const sim::Field field(params_.field_width, params_.field_height);
    Rng placement_rng = root.split();
    const sim::UniformPlacement placement(field, params_.n, placement_rng);
    topology_.emplace(field, placement.snapshot(kSimStart), params_.tx_range);
    for (const auto& [a, b] : topology_->pairs()) pairs_.emplace_back(a, b);
    world_ms_ = seconds_between(t0, Clock::now()) * 1e3;

    t0 = Clock::now();
    Rng adversary_rng = root.split();
    compromise_ = std::make_unique<adversary::CompromiseModel>(authority_->assignment(),
                                                               params_.q, adversary_rng);
    jammer_ = std::make_unique<adversary::ReactiveJammer>(
        *compromise_, adversary::JammerParams{params_.z, params_.mu});
    adversary_ms_ = seconds_between(t0, Clock::now()) * 1e3;

    // Receiver codebooks: each node's usable pool codes, prepared (shift
    // tables built) once and shared by every pass.
    t0 = Clock::now();
    Rng node_rng(kWorldSeed + 2);
    const std::vector<core::NodeState> nodes = make_nodes(node_rng);
    provision_ms_ = seconds_between(t0, Clock::now()) * 1e3;
    const double rss_before = resident_mb();
    t0 = Clock::now();
    for (const core::NodeState& node : nodes) {
      std::vector<dsss::SpreadCode> codes;
      for (const CodeId c : node.usable_codes()) codes.push_back(authority_->code(c));
      (void)codebooks_.prepare(node.id(), codes).batch_tables();
    }
    prepare_ms_ = seconds_between(t0, Clock::now()) * 1e3;
    codebook_mb_ = resident_mb() - rss_before;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const override { return seeds_; }

  [[nodiscard]] Iteration iterate(std::uint64_t seed) override { return pass(seed, nullptr); }

  void traced(const Options& options, Report& report) override {
    Tracer tracer;
    VerifyCounters verify;
    std::vector<double> on_s;
    std::vector<double> off_s;
    const std::vector<std::uint64_t> traced_seeds(seeds_.begin(), seeds_.begin() + 2);
    for (std::size_t i = 0; i < traced_seeds.size(); ++i) {
      const std::uint64_t seed = traced_seeds[i];
      const VerifyCounters before = VerifyCounters::read();
      on_s.push_back(pass(seed, nullptr).seconds);
      verify += VerifyCounters::read() - before;

      tracer.set_iteration(static_cast<std::uint32_t>(i));
      const Iteration traced = pass(seed, &tracer);
      ++report.attempted;
      if (!traced.ok) ++report.failed;

      obs::set_metrics_enabled(false);
      off_s.push_back(pass(seed, nullptr).seconds);
      obs::set_metrics_enabled(true);
    }

    const Ledger ledger = summarize(tracer);
    const auto iters = static_cast<double>(traced_seeds.size());
    LayerValues& v = report.layer;
    v["predist.authority_ms"] = authority_ms_;
    v["sim.world_ms"] = world_ms_;
    v["adversary.setup_ms"] = adversary_ms_;
    v["crypto.provision_ms"] = provision_ms_;
    v["dsss.codebook_prepare_ms"] = prepare_ms_;
    v["dsss.codebook_mb"] = codebook_mb_;
    const LayerTotals& attempts = ledger[SpanName::Attempt];
    v["dndp.attempts"] = static_cast<double>(attempts.count) / iters;
    v["dndp.attempt_us_p50"] = quantile(attempts.durations_s, 0.50) * 1e6;
    v["dndp.attempt_us_p99"] = quantile(attempts.durations_s, 0.99) * 1e6;
    v["dndp.self_share"] = ledger.self_share(SpanName::Attempt);
    v["dndp.subsessions_per_attempt"] =
        ratio(static_cast<double>(subsessions_), static_cast<double>(attempts.count));
    v["dndp.subsession_completed_ratio"] =
        ratio(static_cast<double>(completed_), static_cast<double>(subsessions_));
    const LayerTotals& tx = ledger[SpanName::PhyTransmit];
    v["phy.calls"] = static_cast<double>(tx.count + ledger[SpanName::PhyBegin].count) / iters;
    v["phy.share"] = ledger.share(SpanName::PhyBegin) + ledger.share(SpanName::PhyTransmit);
    v["phy.delivered_ratio"] =
        ratio(static_cast<double>(delivered_), static_cast<double>(transmits_));
    v["phy.chip_tx_us_p50"] = quantile(tx.durations_s, 0.50) * 1e6;
    v["phy.chip_tx_us_p99"] = quantile(tx.durations_s, 0.99) * 1e6;
    v["phy.chip_jam_ratio"] = ratio(static_cast<double>(jams_), static_cast<double>(messages_));
    add_verify_metrics(verify, iters, v);
    v["obs.metrics_tax_pct"] = overhead_pct(median(on_s), median(off_s));
    v["trace.overhead_pct"] =
        overhead_pct(median(ledger[SpanName::Iteration].durations_s), median(on_s));
    v["ledger.unattributed_share"] = ledger.unattributed_share();

    Rng node_rng(kWorldSeed + 2);
    const std::vector<core::NodeState> nodes = make_nodes(node_rng);
    std::vector<ReplayPair> crypto_pairs;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> index_pairs;
    for (const auto& [a, b] : pairs_) {
      crypto_pairs.push_back({a, &nodes[raw(b)].key()});
      index_pairs.emplace_back(raw(a), raw(b));
    }
    ++report.attempted;
    if (!replay_crypto(crypto_pairs, params_, crypto_pairs.size(), v)) ++report.failed;
    replay_intersection(index_pairs, nodes, v);
    ++report.attempted;
    if (!replay_chip(nodes, v)) ++report.failed;

    if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
      std::fprintf(stderr, "warning: cannot write spans to %s\n", options.trace_out.c_str());
    }
  }

 private:
  std::vector<core::NodeState> make_nodes(Rng& rng) const {
    std::vector<core::NodeState> nodes;
    nodes.reserve(params_.n);
    for (std::uint32_t i = 0; i < params_.n; ++i) {
      const NodeId id = node_id(i);
      nodes.emplace_back(id, ibc_.issue(id), authority_->assignment().codes_of(id), *authority_,
                         params_.gamma, rng.split());
    }
    return nodes;
  }

  /// One pass over every pair. With a tracer, each attempt and PHY call is a
  /// span and the pass's PHY and sub-session counts accumulate into members.
  Iteration pass(std::uint64_t seed, Tracer* tracer) {
    Iteration it;
    it.seed = seed;
    Rng rng(seed);
    std::vector<core::NodeState> nodes = make_nodes(rng);
    Rng phy_rng = rng.split();
    Rng order_rng = rng.split();
    core::ChipPhy chip(
        params_, *topology_, *jammer_,
        [this](NodeId node) -> const dsss::PreparedCodebook& { return codebooks_.entry(node); },
        phy_rng);
    TimingPhy timing(chip, tracer);
    core::PhyModel& phy = tracer != nullptr ? static_cast<core::PhyModel&>(timing) : chip;
    core::DndpEngine engine(params_, phy, /*redundancy=*/true, seed);

    struct Outcome {
      NodeId initiator;
      NodeId responder;
      core::DndpResult result;
    };
    std::vector<Outcome> outcomes;
    outcomes.reserve(pairs_.size());
    const std::uint64_t frames_before = counter("crypto.verify.frames");
    const auto t0 = Clock::now();
    {
      const Scope iteration(tracer, SpanName::Iteration);
      for (const auto& [a, b] : pairs_) {
        const bool a_first = order_rng.bernoulli(0.5);
        const NodeId init = a_first ? a : b;
        const NodeId resp = a_first ? b : a;
        const Scope attempt(tracer, SpanName::Attempt);
        outcomes.push_back({init, resp, engine.run(nodes[raw(init)], nodes[raw(resp)])});
      }
    }
    it.seconds = seconds_between(t0, Clock::now());
    it.frames = counter("crypto.verify.frames") - frames_before;
    it.attempts = outcomes.size();

    // A discovered link must leave both ends holding the same K_AB and
    // session code; the digest then pins every outcome to the committed one.
    bool links_agree = true;
    Digest d;
    for (const Outcome& o : outcomes) {
      d.add_u64(raw(o.initiator));
      d.add_u64(raw(o.responder));
      d.add_u64(o.result.discovered ? 1 : 0);
      d.add_u64(o.result.winning_code ? raw(*o.result.winning_code) : 0xffffffffULL);
      d.add_u64(o.result.shared_codes);
      d.add_u64(o.result.hellos_delivered);
      d.add_u64(o.result.subsessions_completed);
      if (o.result.discovered) {
        const core::LogicalNeighbor* at_a = nodes[raw(o.initiator)].neighbor(o.responder);
        const core::LogicalNeighbor* at_b = nodes[raw(o.responder)].neighbor(o.initiator);
        links_agree &= at_a != nullptr && at_b != nullptr && at_a->pair_key == at_b->pair_key &&
                       at_a->session_code == at_b->session_code;
        if (at_a != nullptr) d.add_bits(at_a->session_code);
      }
    }
    d.add_u64(chip.chip_messages());
    d.add_u64(chip.chip_jams());
    it.digest = d.hex();
    it.ok = links_agree && expected_.matches("chip_dndp", seed, it.digest);

    if (tracer != nullptr) {
      messages_ += chip.chip_messages();
      jams_ += chip.chip_jams();
      transmits_ += timing.transmits();
      delivered_ += timing.delivered();
      for (const Outcome& o : outcomes) {
        subsessions_ += o.result.shared_codes;
        completed_ += o.result.subsessions_completed;
      }
    }
    return it;
  }

  /// Replays the receive chain on one clean HELLO: the batched sync scan over
  /// the receiver's prepared codebook, then RS decoding clean and with
  /// erasures. Returns false when a replay does not recover the payload.
  bool replay_chip(const std::vector<core::NodeState>& nodes, LayerValues& v) {
    // A HELLO from a neighbor on one of the receiver's own codes, scanned
    // against the receiver's whole prepared codebook as ChipPhy does.
    const core::NodeState& a = nodes[raw(pairs_.front().first)];
    const core::NodeState& b = nodes[raw(pairs_.front().second)];
    const CodeId code = b.usable_codes().front();
    const std::size_t n = params_.N;
    const ecc::EccCodec codec(params_.mu);
    const BitVector payload = core::HelloMessage{a.id()}.encode(wire_of(params_));
    const BitVector coded = codec.encode(payload);
    const BitVector chips = dsss::spread(coded, authority_->code(code));
    dsss::ChipChannel channel(n / 2 + chips.size() + n);
    channel.add(n / 2, chips);
    Rng noise(kWorldSeed + 3);
    const BitVector received = channel.receive(noise);
    const dsss::PreparedCodebook& scan_book = codebooks_.entry(b.id());

    // ChipPhy's receive loop: a sync position can be a false lock, which the
    // RS decode rejects, and the scan resumes one chip later. Only the scan
    // calls are timed.
    dsss::SyncHit hit;
    ecc::EccCodec::Scratch scratch;
    BitVector out;
    double scan_s = 0.0;
    for (std::size_t i = 0; i < kReplayCalls; ++i) {
      std::size_t offset = 0;
      while (true) {
        const auto t0 = Clock::now();
        const bool found = dsss::find_first_message_into(received, scan_book, coded.size(),
                                                         params_.tau, offset, hit);
        scan_s += seconds_between(t0, Clock::now());
        if (!found) return false;
        if (codec.decode_into(hit.message.bits, payload.size(),
                              std::span<const std::size_t>(hit.message.erased_bits), scratch,
                              out)) {
          break;
        }
        offset = hit.chip_offset + 1;
      }
    }
    v["dsss.scan_us"] = scan_s * 1e6 / kReplayCalls;

    bool clean_ok = true;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kReplayCalls; ++i) {
      clean_ok &= codec.decode_into(hit.message.bits, payload.size(),
                                    std::span<const std::size_t>(hit.message.erased_bits), scratch,
                                    out);
    }
    v["ecc.decode_clean_us"] = seconds_between(t0, Clock::now()) * 1e6 / kReplayCalls;
    clean_ok &= out == payload;

    // Erase (and flip) the first 30% of the coded bits: inside the code's
    // mu/(1+mu) erasure tolerance, so decoding must still succeed.
    BitVector damaged = coded;
    std::vector<std::size_t> erased;
    for (std::size_t i = 0; i < coded.size() * 3 / 10; ++i) {
      erased.push_back(i);
      damaged.flip(i);
    }
    bool erased_ok = true;
    t0 = Clock::now();
    for (std::size_t i = 0; i < kReplayCalls; ++i) {
      erased_ok &= codec.decode_into(damaged, payload.size(), erased, scratch, out);
    }
    v["ecc.decode_erased_us"] = seconds_between(t0, Clock::now()) * 1e6 / kReplayCalls;
    erased_ok &= out == payload;
    return clean_ok && erased_ok;
  }

  core::Params params_;
  crypto::IbcAuthority ibc_;
  const ExpectedDigests& expected_;
  std::optional<predist::CodePoolAuthority> authority_;
  std::optional<sim::Topology> topology_;
  std::unique_ptr<adversary::CompromiseModel> compromise_;
  std::unique_ptr<adversary::Jammer> jammer_;
  dsss::NodeCodebookCache codebooks_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;
  std::vector<std::uint64_t> seeds_{1, 2, 3, 4};
  double authority_ms_ = 0.0;
  double world_ms_ = 0.0;
  double adversary_ms_ = 0.0;
  double provision_ms_ = 0.0;
  double prepare_ms_ = 0.0;
  double codebook_mb_ = 0.0;
  // Accumulated over traced passes only.
  std::uint64_t messages_ = 0;
  std::uint64_t jams_ = 0;
  std::uint64_t transmits_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t subsessions_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_chip_dndp(const ExpectedDigests& expected) {
  return std::make_unique<ChipWorkload>(expected);
}

}  // namespace perfbench
