// Golden Table-I digests: the paper's headline world (Params::defaults(),
// n = 2000, m = 100, l = 40, q = 20, reactive jammer) for two fixed seeds,
// checked bit for bit against committed hex.
//
// Two digests per seed:
//   * every RunResult field of DiscoverySimulator::run_once, and
//   * every node's logical-neighbor table after D-NDP (peer, K_AB, session
//     code, via_mndp), which no RunResult field covers — session codes and
//     pairwise keys only show up here.
// run_once keeps its nodes private, so the table digest comes from a run
// composed of the same public calls in the same order; the composed
// RunResult must first equal run_once's bit for bit.
//
// Alongside, two of Poturalski et al.'s outcome properties are asserted on
// the same runs: a discovered link means both ends hold the same K_AB and
// the same session code, and every logical neighbor is the one the IBC
// authority's key for that pair yields (no AUTH accepted from a non-holder
// of K_AB). The committed hex predates the derive-once figure path; any
// refactor of D-NDP must leave it unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <ostream>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "common/hex.hpp"
#include "core/abstract_phy.hpp"
#include "core/analysis.hpp"
#include "core/discovery_sim.hpp"
#include "core/dndp.hpp"
#include "core/latency.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/field.hpp"
#include "sim/mobility.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {
namespace {

struct Golden {
  std::uint64_t seed;
  const char* result_hex;
  const char* neighbors_hex;
  std::uint64_t verify_frames;  ///< crypto.verify.frames one run_once records
};

// Keeps the listed test name stable: gtest would otherwise print the raw
// bytes of the struct, pointers included.
void PrintTo(const Golden& golden, std::ostream* os) { *os << "seed " << golden.seed; }

constexpr Golden kGolden[] = {
    {1, "146d63b6f77204561950d8840e9b99274194373daf2b6d2f39dc2e182ce699a5",
     "4908f88823b942206e53d237d8afe47230b9702807e4dbec16c7a6b1171ace63", 56152},
    {2, "ba3ab37057ebcb490a355f41d367a23650b41c4958fffe2236b6b0b76f5f399f",
     "6fe271f3f36d87e67da1a342abd3c5950fdd58d986ac40ee6508a8ad5dc55a29", 55004},
};

class Hasher {
 public:
  void u64(std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
    sha_.update(std::span<const std::uint8_t>(bytes, 8));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> b) {
    u64(b.size());
    sha_.update(b);
  }
  [[nodiscard]] std::string hex() { return to_hex(sha_.finalize()); }

 private:
  crypto::Sha256 sha_;
};

std::string result_digest(const RunResult& r) {
  Hasher h;
  h.u64(r.physical_pairs);
  h.u64(r.dndp_discovered);
  h.u64(r.mndp_recovered);
  h.u64(r.compromised_codes);
  h.f64(r.avg_degree);
  h.f64(r.p_dndp);
  h.f64(r.p_mndp);
  h.f64(r.p_mndp_conditional);
  h.u64(r.p_mndp_defined ? 1 : 0);
  h.f64(r.p_jrsnd);
  h.f64(r.latency_dndp_s);
  h.f64(r.latency_mndp_s);
  h.f64(r.latency_jrsnd_s);
  const MndpStats& m = r.mndp_stats;
  for (const std::uint64_t v :
       {m.requests_sent, m.responses_sent, m.signature_verifications, m.signatures_created,
        m.requests_dropped, m.discoveries, m.false_positive_responses,
        std::uint64_t{m.max_hops_seen}, m.retransmissions, m.timeouts}) {
    h.u64(v);
  }
  h.u64(r.dndp_retransmissions);
  h.u64(r.dndp_timeouts);
  h.u64(r.faults_injected);
  return h.hex();
}

std::string neighbors_digest(const std::vector<NodeState>& nodes) {
  Hasher h;
  for (const NodeState& node : nodes) {
    const std::vector<NodeId> peers = node.logical_neighbors();  // ascending
    h.u64(raw(node.id()));
    h.u64(peers.size());
    for (const NodeId peer : peers) {
      const LogicalNeighbor* info = node.neighbor(peer);
      h.u64(raw(peer));
      h.bytes(info->pair_key);
      h.u64(info->session_code.size());
      h.bytes(info->session_code.to_bytes());
      h.u64(info->via_mndp ? 1 : 0);
    }
  }
  return h.hex();
}

ExperimentConfig table1_config() {
  ExperimentConfig cfg;
  cfg.params = Params::defaults();
  cfg.jammer = JammerKind::Reactive;
  return cfg;
}

/// run_once (fault-free, graph-level M-NDP, reactive jammer) rebuilt from
/// its public calls with the same Rng draws, keeping the nodes.
RunResult composed_run(const ExperimentConfig& cfg, std::uint64_t seed,
                       std::vector<NodeState>& nodes,
                       std::unique_ptr<crypto::IbcAuthority>& ibc_out) {
  const Params& p = cfg.params;
  Rng root(seed);
  RunResult result;

  const predist::CodePoolAuthority authority(p.predist(), root.split());
  const predist::CodeAssignment& assignment = authority.assignment();
  const sim::Field field(p.field_width, p.field_height);
  Rng placement_rng = root.split();
  const sim::UniformPlacement placement(field, p.n, placement_rng);
  const sim::Topology topology(field, placement.snapshot(kSimStart), p.tx_range);
  result.avg_degree = topology.average_degree();
  result.physical_pairs = topology.pairs().size();

  Rng adversary_rng = root.split();
  const adversary::CompromiseModel compromise(assignment, p.q, adversary_rng);
  result.compromised_codes = compromise.compromised_code_count();
  adversary::ReactiveJammer jammer(compromise, adversary::JammerParams{p.z, p.mu});

  ibc_out = std::make_unique<crypto::IbcAuthority>(root.next());
  nodes.reserve(p.n);
  for (std::uint32_t i = 0; i < p.n; ++i) {
    const NodeId id = node_id(i);
    nodes.emplace_back(id, ibc_out->issue(id), assignment.codes_of(id), authority, p.gamma,
                       root.split());
  }

  Rng phy_rng = root.split();
  AbstractPhy phy(topology, jammer, phy_rng);
  DndpEngine dndp(p, phy, cfg.redundancy, seed, nullptr);
  sim::LogicalGraph logical(p.n);
  std::vector<std::pair<NodeId, NodeId>> failed_pairs;
  Rng order_rng = root.split();
  for (const auto& [a, b] : topology.pairs()) {
    const bool a_first = order_rng.bernoulli(0.5);
    const DndpResult r =
        dndp.run(nodes[raw(a_first ? a : b)], nodes[raw(a_first ? b : a)]);
    result.dndp_retransmissions += r.retransmissions;
    result.dndp_timeouts += r.timeouts;
    if (r.discovered) {
      ++result.dndp_discovered;
      logical.add_edge(a, b);
    } else {
      failed_pairs.emplace_back(a, b);
    }
  }

  std::size_t standalone = 0;
  for (const auto& [a, b] : topology.pairs()) {
    standalone += logical.reachable_within(a, b, p.nu, /*exclude_direct=*/true);
  }
  std::vector<std::pair<NodeId, NodeId>> remaining = failed_pairs;
  for (std::uint32_t round = 0; round < cfg.mndp_rounds && !remaining.empty(); ++round) {
    std::vector<std::pair<NodeId, NodeId>> recovered_now;
    std::vector<std::pair<NodeId, NodeId>> still_failed;
    for (const auto& [a, b] : remaining) {
      (logical.reachable_within(a, b, p.nu) ? recovered_now : still_failed).emplace_back(a, b);
    }
    result.mndp_recovered += recovered_now.size();
    for (const auto& [a, b] : recovered_now) logical.add_edge(a, b);
    remaining = std::move(still_failed);
  }

  if (result.physical_pairs > 0) {
    const auto pairs = static_cast<double>(result.physical_pairs);
    result.p_dndp = static_cast<double>(result.dndp_discovered) / pairs;
    result.p_mndp = static_cast<double>(standalone) / pairs;
    result.p_jrsnd = static_cast<double>(result.dndp_discovered + result.mndp_recovered) / pairs;
  }
  const std::size_t failed = result.physical_pairs - result.dndp_discovered;
  if (failed > 0) {
    result.p_mndp_conditional =
        static_cast<double>(result.mndp_recovered) / static_cast<double>(failed);
    result.p_mndp_defined = true;
  }
  const LatencyModel latency(p);
  Rng latency_rng = root.split();
  Stat dndp_latency;
  const std::size_t samples = std::max<std::size_t>(result.dndp_discovered, 1);
  for (std::size_t i = 0; i < std::min<std::size_t>(samples, 1000); ++i) {
    dndp_latency.add(latency.sample_dndp(latency_rng).seconds());
  }
  result.latency_dndp_s = dndp_latency.mean();
  result.latency_mndp_s = latency.mndp(result.avg_degree, p.nu).seconds();
  result.latency_jrsnd_s = jrsnd_latency(result.latency_dndp_s, result.latency_mndp_s);
  return result;
}

class GoldenTable1 : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTable1, RunResultAndNeighborTablesMatchCommittedDigests) {
  const Golden& golden = GetParam();
  const DiscoverySimulator sim(table1_config());

  RunResult reference;
  std::uint64_t frames = 0;
  {
    const bool was_enabled = obs::metrics_enabled();
    obs::MetricsRegistry scratch;
    const obs::ScopedMetricsRegistry scope(&scratch);
    obs::set_metrics_enabled(true);
    reference = sim.run_once(golden.seed);
    obs::set_metrics_enabled(was_enabled);
    frames = scratch.counter("crypto.verify.frames").value();
  }

  std::vector<NodeState> nodes;
  std::unique_ptr<crypto::IbcAuthority> ibc;
  const RunResult composed = composed_run(sim.config(), golden.seed, nodes, ibc);
  ASSERT_EQ(result_digest(composed), result_digest(reference))
      << "the composed run no longer mirrors run_once";

  EXPECT_EQ(result_digest(reference), golden.result_hex) << "seed " << golden.seed;
  EXPECT_EQ(neighbors_digest(nodes), golden.neighbors_hex) << "seed " << golden.seed;
  EXPECT_EQ(frames, golden.verify_frames) << "seed " << golden.seed;

  // Outcome properties on the same run: every link is symmetric, both ends
  // agree on K_AB and the session code, and K_AB is the pairwise key the
  // authority's keys for exactly those two identities derive.
  std::size_t link_ends = 0;
  for (const NodeState& node : nodes) {
    for (const NodeId peer : node.logical_neighbors()) {
      ++link_ends;
      const LogicalNeighbor* here = node.neighbor(peer);
      const LogicalNeighbor* there = nodes[raw(peer)].neighbor(node.id());
      ASSERT_NE(there, nullptr) << raw(node.id()) << " -> " << raw(peer) << " is one-sided";
      EXPECT_EQ(here->pair_key, there->pair_key);
      EXPECT_EQ(here->session_code, there->session_code);
      EXPECT_EQ(here->session_code.size(), sim.config().params.N);
      EXPECT_FALSE(here->via_mndp);
      EXPECT_EQ(here->pair_key, ibc->issue(node.id()).shared_key(peer));
    }
  }
  EXPECT_EQ(link_ends, 2 * reference.dndp_discovered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenTable1, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& param_info) {
                           return "seed" + std::to_string(param_info.param.seed);
                         });

}  // namespace
}  // namespace jrsnd::core
