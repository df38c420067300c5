// table1 and fig5_deep: one seeded Monte-Carlo run of the paper's §VI world.
//
// Untraced, a timed iteration is exactly DiscoverySimulator::run_once — the
// call `jrsnd simulate` and the figure benches make. The traced run instead
// composes the same run from the public calls run_once makes, with a span
// around each layer, and must reproduce run_once's RunResult bit for bit
// before any per-layer number is reported.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "bench.hpp"
#include "core/abstract_phy.hpp"
#include "core/analysis.hpp"
#include "core/discovery_sim.hpp"
#include "core/dndp.hpp"
#include "core/latency.hpp"
#include "core/metrics.hpp"
#include "layers.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/field.hpp"
#include "sim/mobility.hpp"
#include "sim/topology.hpp"

namespace perfbench {
namespace {

using namespace jrsnd;

/// The figure benches' base seed (bench::default_config); the four runs
/// every invocation cycles are base_seed + 0..3.
constexpr std::uint64_t kBaseSeed = 20110620;

/// Pairs replayed per traced iteration for the crypto and intersection costs.
constexpr std::size_t kReplayPairs = 4096;

/// The figure benches' configuration (bench::default_config): Table-I
/// parameters, the reactive jammer, graph-level M-NDP, metrics registry on,
/// event tracing off, flight recorder at its default.
core::ExperimentConfig sim_config(bool deep) {
  obs::set_metrics_enabled(true);
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.jammer = core::JammerKind::Reactive;
  cfg.mndp_rounds = 1;
  cfg.base_seed = kBaseSeed;
  if (deep) {
    // Fig. 5's steady point: heavy compromise (P_D ~ 0.2), deep M-NDP.
    cfg.params.q = 100;
    cfg.params.nu = 8;
    cfg.mndp_rounds = 2;
  }
  return cfg;
}

std::string digest_of(const core::RunResult& r) {
  Digest d;
  d.add_u64(r.physical_pairs);
  d.add_u64(r.dndp_discovered);
  d.add_u64(r.mndp_recovered);
  d.add_u64(r.compromised_codes);
  d.add_double(r.avg_degree);
  d.add_double(r.p_dndp);
  d.add_double(r.p_mndp);
  d.add_double(r.p_mndp_conditional);
  d.add_u64(r.p_mndp_defined ? 1 : 0);
  d.add_double(r.p_jrsnd);
  d.add_double(r.latency_dndp_s);
  d.add_double(r.latency_mndp_s);
  d.add_double(r.latency_jrsnd_s);
  const core::MndpStats& m = r.mndp_stats;
  for (const std::uint64_t v :
       {m.requests_sent, m.responses_sent, m.signature_verifications, m.signatures_created,
        m.requests_dropped, m.discoveries, m.false_positive_responses,
        std::uint64_t{m.max_hops_seen}, m.retransmissions, m.timeouts}) {
    d.add_u64(v);
  }
  d.add_u64(r.dndp_retransmissions);
  d.add_u64(r.dndp_timeouts);
  d.add_u64(r.faults_injected);
  return d.hex();
}

/// What the composed run saw, beyond its RunResult.
struct ComposedStats {
  std::uint64_t attempts = 0;
  std::uint64_t subsessions = 0;
  std::uint64_t subsessions_completed = 0;
  std::uint64_t transmits = 0;
  std::uint64_t delivered = 0;
  std::uint64_t reach_calls = 0;
};

std::unique_ptr<adversary::Jammer> make_jammer(core::JammerKind kind,
                                               const adversary::CompromiseModel& compromise,
                                               const core::Params& p) {
  const adversary::JammerParams jp{p.z, p.mu};
  switch (kind) {
    case core::JammerKind::None: return std::make_unique<adversary::NullJammer>();
    case core::JammerKind::Random:
      return std::make_unique<adversary::RandomJammer>(compromise, jp);
    case core::JammerKind::Reactive:
      return std::make_unique<adversary::ReactiveJammer>(compromise, jp);
    case core::JammerKind::Intelligent:
      return std::make_unique<adversary::IntelligentJammer>(compromise);
  }
  throw std::logic_error("unknown jammer kind");
}

/// run_once (fault-free, graph-level M-NDP) rebuilt from its public calls in
/// the same order and with the same Rng draws, one span per layer. When
/// `replay` is given, the crypto and intersection replays run on this
/// world's pairs after the iteration span closes; `replay_ok` turns false
/// when a replayed AUTH frame is rejected.
core::RunResult composed_run(const core::ExperimentConfig& cfg, std::uint64_t seed,
                             Tracer& tracer, ComposedStats& stats, LayerValues* replay,
                             bool& replay_ok) {
  const core::Params& p = cfg.params;
  Rng root(seed);
  core::RunResult result;
  std::optional<predist::CodePoolAuthority> authority;
  std::optional<sim::Topology> topology;
  std::unique_ptr<adversary::CompromiseModel> compromise;
  std::unique_ptr<adversary::Jammer> jammer;
  std::vector<core::NodeState> nodes;
  {
    const Scope iteration(&tracer, SpanName::Iteration);
    {
      const Scope span(&tracer, SpanName::Authority);
      authority.emplace(p.predist(), root.split());
    }
    const predist::CodeAssignment& assignment = authority->assignment();
    const sim::Field field(p.field_width, p.field_height);
    {
      const Scope span(&tracer, SpanName::World);
      Rng placement_rng = root.split();
      const sim::UniformPlacement placement(field, p.n, placement_rng);
      topology.emplace(field, placement.snapshot(kSimStart), p.tx_range);
      result.avg_degree = topology->average_degree();
      result.physical_pairs = topology->pairs().size();
    }
    {
      const Scope span(&tracer, SpanName::Adversary);
      Rng adversary_rng = root.split();
      compromise = std::make_unique<adversary::CompromiseModel>(assignment, p.q, adversary_rng);
      result.compromised_codes = compromise->compromised_code_count();
      jammer = make_jammer(cfg.jammer, *compromise, p);
    }
    {
      const Scope span(&tracer, SpanName::Provision);
      const crypto::IbcAuthority ibc(root.next());
      nodes.reserve(p.n);
      for (std::uint32_t i = 0; i < p.n; ++i) {
        const NodeId id = node_id(i);
        nodes.emplace_back(id, ibc.issue(id), assignment.codes_of(id), *authority, p.gamma,
                           root.split());
      }
    }

    sim::LogicalGraph logical(p.n);
    std::vector<std::pair<NodeId, NodeId>> failed_pairs;
    {
      const Scope span(&tracer, SpanName::Dndp);
      Rng phy_rng = root.split();
      core::AbstractPhy abstract_phy(*topology, *jammer, phy_rng);
      TimingPhy phy(abstract_phy, &tracer);
      core::DndpEngine dndp(p, phy, cfg.redundancy, seed, nullptr);
      Rng order_rng = root.split();
      for (const auto& [a, b] : topology->pairs()) {
        const bool a_first = order_rng.bernoulli(0.5);
        core::NodeState& initiator = nodes[raw(a_first ? a : b)];
        core::NodeState& responder = nodes[raw(a_first ? b : a)];
        core::DndpResult r;
        {
          const Scope attempt(&tracer, SpanName::Attempt);
          r = dndp.run(initiator, responder);
        }
        ++stats.attempts;
        stats.subsessions += r.shared_codes;
        stats.subsessions_completed += r.subsessions_completed;
        result.dndp_retransmissions += r.retransmissions;
        result.dndp_timeouts += r.timeouts;
        if (r.discovered) {
          ++result.dndp_discovered;
          logical.add_edge(a, b);
        } else {
          failed_pairs.emplace_back(a, b);
        }
      }
      stats.transmits += phy.transmits();
      stats.delivered += phy.delivered();
    }

    std::size_t standalone = 0;
    {
      const Scope span(&tracer, SpanName::Mndp);
      for (const auto& [a, b] : topology->pairs()) {
        const Scope reach(&tracer, SpanName::Reach);
        standalone += logical.reachable_within(a, b, p.nu, /*exclude_direct=*/true);
        ++stats.reach_calls;
      }
      std::vector<std::pair<NodeId, NodeId>> remaining = failed_pairs;
      for (std::uint32_t round = 0; round < cfg.mndp_rounds && !remaining.empty(); ++round) {
        std::vector<std::pair<NodeId, NodeId>> recovered_now;
        std::vector<std::pair<NodeId, NodeId>> still_failed;
        for (const auto& [a, b] : remaining) {
          bool reachable = false;
          {
            const Scope reach(&tracer, SpanName::Reach);
            reachable = logical.reachable_within(a, b, p.nu);
            ++stats.reach_calls;
          }
          if (reachable) {
            recovered_now.emplace_back(a, b);
          } else {
            still_failed.emplace_back(a, b);
          }
        }
        result.mndp_recovered += recovered_now.size();
        for (const auto& [a, b] : recovered_now) logical.add_edge(a, b);
        remaining = std::move(still_failed);
      }
    }

    {
      const Scope span(&tracer, SpanName::Rates);
      if (result.physical_pairs > 0) {
        const auto pairs = static_cast<double>(result.physical_pairs);
        result.p_dndp = static_cast<double>(result.dndp_discovered) / pairs;
        result.p_mndp = static_cast<double>(standalone) / pairs;
        result.p_jrsnd =
            static_cast<double>(result.dndp_discovered + result.mndp_recovered) / pairs;
      }
      const std::size_t failed = result.physical_pairs - result.dndp_discovered;
      if (failed > 0) {
        result.p_mndp_conditional =
            static_cast<double>(result.mndp_recovered) / static_cast<double>(failed);
        result.p_mndp_defined = true;
      }
      const core::LatencyModel latency(p);
      Rng latency_rng = root.split();
      core::Stat dndp_latency;
      const std::size_t samples = std::max<std::size_t>(result.dndp_discovered, 1);
      for (std::size_t i = 0; i < std::min<std::size_t>(samples, 1000); ++i) {
        dndp_latency.add(latency.sample_dndp(latency_rng).seconds());
      }
      result.latency_dndp_s = dndp_latency.mean();
      result.latency_mndp_s = latency.mndp(result.avg_degree, p.nu).seconds();
      result.latency_jrsnd_s = core::jrsnd_latency(result.latency_dndp_s, result.latency_mndp_s);
    }
  }

  if (replay != nullptr) {
    std::vector<ReplayPair> crypto_pairs;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> index_pairs;
    for (const auto& [a, b] : topology->pairs()) {
      if (index_pairs.size() == kReplayPairs) break;
      crypto_pairs.push_back({a, &nodes[raw(b)].key()});
      index_pairs.emplace_back(raw(a), raw(b));
    }
    replay_ok = replay_crypto(crypto_pairs, p, crypto_pairs.size(), *replay);
    replay_intersection(index_pairs, nodes, *replay);
  }
  return result;
}

class SimWorkload final : public Workload {
 public:
  SimWorkload(std::string name, bool deep, const ExpectedDigests& expected)
      : name_(std::move(name)),
        config_(sim_config(deep)),
        sim_(config_),
        expected_(expected),
        seeds_{kBaseSeed, kBaseSeed + 1, kBaseSeed + 2, kBaseSeed + 3} {}

  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const override { return seeds_; }

  [[nodiscard]] Iteration iterate(std::uint64_t seed) override {
    Iteration it;
    it.seed = seed;
    const std::uint64_t frames_before = counter("crypto.verify.frames");
    const auto t0 = Clock::now();
    const core::RunResult r = sim_.run_once(seed);
    it.seconds = seconds_between(t0, Clock::now());
    it.frames = counter("crypto.verify.frames") - frames_before;
    it.attempts = r.physical_pairs;  // run_once runs D-NDP once per physical pair
    it.digest = digest_of(r);
    it.ok = expected_.matches(name_, seed, it.digest);
    return it;
  }

  void traced(const Options& options, Report& report) override {
    Tracer tracer;
    ComposedStats stats;
    VerifyCounters verify;
    std::vector<double> on_s;
    std::vector<double> off_s;
    bool replay_ok = true;
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      const std::uint64_t seed = seeds_[i];
      const VerifyCounters before = VerifyCounters::read();
      auto t0 = Clock::now();
      const core::RunResult reference = sim_.run_once(seed);
      on_s.push_back(seconds_between(t0, Clock::now()));
      verify += VerifyCounters::read() - before;

      tracer.set_iteration(static_cast<std::uint32_t>(i));
      const bool last = i + 1 == seeds_.size();
      const core::RunResult composed = composed_run(config_, seed, tracer, stats,
                                                    last ? &report.layer : nullptr, replay_ok);
      if (digest_of(composed) != digest_of(reference)) {
        throw std::runtime_error("composed run diverged from run_once at seed " +
                                 std::to_string(seed));
      }

      obs::set_metrics_enabled(false);
      t0 = Clock::now();
      (void)sim_.run_once(seed);
      off_s.push_back(seconds_between(t0, Clock::now()));
      obs::set_metrics_enabled(true);

      ++report.attempted;
      if (!expected_.matches(name_, seed, digest_of(reference))) ++report.failed;
    }
    std::printf("identity: %zu/%zu traced RunResults bit-identical to run_once\n",
                seeds_.size(), seeds_.size());
    ++report.attempted;
    if (!replay_ok) ++report.failed;

    const Ledger ledger = summarize(tracer);
    const auto iters = static_cast<double>(seeds_.size());
    LayerValues& v = report.layer;
    v["predist.authority_ms"] = ledger[SpanName::Authority].total_s * 1e3 / iters;
    v["sim.world_ms"] = ledger[SpanName::World].total_s * 1e3 / iters;
    v["adversary.setup_ms"] = ledger[SpanName::Adversary].total_s * 1e3 / iters;
    v["crypto.provision_ms"] = ledger[SpanName::Provision].total_s * 1e3 / iters;
    v["sim.reach_calls"] = static_cast<double>(stats.reach_calls) / iters;
    v["sim.reach_share"] = ledger.share(SpanName::Reach);
    const LayerTotals& attempts = ledger[SpanName::Attempt];
    v["dndp.attempts"] = static_cast<double>(stats.attempts) / iters;
    v["dndp.attempt_us_p50"] = quantile(attempts.durations_s, 0.50) * 1e6;
    v["dndp.attempt_us_p99"] = quantile(attempts.durations_s, 0.99) * 1e6;
    v["dndp.self_share"] = ledger.self_share(SpanName::Attempt);
    v["dndp.subsessions_per_attempt"] =
        ratio(static_cast<double>(stats.subsessions), static_cast<double>(stats.attempts));
    v["dndp.subsession_completed_ratio"] = ratio(static_cast<double>(stats.subsessions_completed),
                                                 static_cast<double>(stats.subsessions));
    v["phy.calls"] = static_cast<double>(ledger[SpanName::PhyBegin].count +
                                         ledger[SpanName::PhyTransmit].count) / iters;
    v["phy.share"] = ledger.share(SpanName::PhyBegin) + ledger.share(SpanName::PhyTransmit);
    v["phy.delivered_ratio"] =
        ratio(static_cast<double>(stats.delivered), static_cast<double>(stats.transmits));
    add_verify_metrics(verify, iters, v);
    v["obs.metrics_tax_pct"] = overhead_pct(median(on_s), median(off_s));
    v["trace.overhead_pct"] = overhead_pct(median(ledger[SpanName::Iteration].durations_s), median(on_s));
    v["ledger.unattributed_share"] = ledger.unattributed_share();
    if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
      std::fprintf(stderr, "warning: cannot write spans to %s\n", options.trace_out.c_str());
    }
  }

 private:
  std::string name_;
  core::ExperimentConfig config_;
  core::DiscoverySimulator sim_;
  const ExpectedDigests& expected_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace

std::unique_ptr<Workload> make_table1(const ExpectedDigests& expected) {
  return std::make_unique<SimWorkload>("table1", false, expected);
}

std::unique_ptr<Workload> make_fig5_deep(const ExpectedDigests& expected) {
  return std::make_unique<SimWorkload>("fig5_deep", true, expected);
}

}  // namespace perfbench
