// Adversarial end-to-end tests: what a compromised insider can and cannot
// do. The paper's security argument (§IV, §V) reduces to: captured radios
// leak spread codes (jamming, bounded DoS) but NEVER let the adversary
// impersonate a non-compromised identity or hijack a session — because
// authentication rides the ID-based keys, not the codes.
#include <gtest/gtest.h>

#include "jrsnd.hpp"

namespace jrsnd {
namespace {

struct SecurityWorld {
  core::Params params;
  predist::CodePoolAuthority authority;
  crypto::IbcAuthority ibc;
  sim::Field field{100.0, 100.0};
  sim::Topology topology;
  adversary::NullJammer jammer;
  Rng phy_rng{5};
  core::AbstractPhy phy;
  std::vector<core::NodeState> nodes;

  SecurityWorld()
      : params(make_params()),
        authority(params.predist(), Rng(1)),
        ibc(2),
        topology(field, {{10, 10}, {20, 10}, {30, 10}}, 50.0),
        phy(topology, jammer, phy_rng) {
    Rng node_rng(3);
    for (std::uint32_t i = 0; i < params.n; ++i) {
      nodes.emplace_back(node_id(i), ibc.issue(node_id(i)),
                         authority.assignment().codes_of(node_id(i)), authority,
                         params.gamma, node_rng.split());
    }
  }

  static core::Params make_params() {
    core::Params p = core::Params::defaults();
    p.n = 3;
    p.m = 3;
    p.l = 3;
    p.N = 64;
    return p;
  }
};

TEST(Security, ImpersonationInDndpFailsMutualAuthentication) {
  SecurityWorld w;
  // Mallory captured node 2's radio (codes + key) and claims to be node 1:
  // she broadcasts HELLOs carrying ID 1 but can only compute keys with
  // node 2's private key.
  Rng mallory_rng(9);
  core::NodeState mallory(node_id(1), w.ibc.issue(node_id(2)),
                          w.authority.assignment().codes_of(node_id(2)), w.authority,
                          w.params.gamma, mallory_rng);
  core::DndpEngine engine(w.params, w.phy);
  const core::DndpResult result = engine.run(mallory, w.nodes[0]);
  EXPECT_FALSE(result.discovered);
  EXPECT_TRUE(result.mac_failure);  // f_{K}(ID_1 | n) never verifies
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
}

TEST(Security, ImpersonationAsResponderAlsoFails) {
  SecurityWorld w;
  Rng mallory_rng(10);
  core::NodeState mallory(node_id(1), w.ibc.issue(node_id(2)),
                          w.authority.assignment().codes_of(node_id(2)), w.authority,
                          w.params.gamma, mallory_rng);
  core::DndpEngine engine(w.params, w.phy);
  // The honest node initiates; Mallory answers claiming to be node 1.
  const core::DndpResult result = engine.run(w.nodes[0], mallory);
  EXPECT_FALSE(result.discovered);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
}

// The D-NDP engine derives K_AB once per attempt and hands that key slot to
// every later sub-session's verifies. The slot is filed under the initiator's
// private-key identity, so a captured key claiming another ID must still be
// rejected on every sub-session — including the ones that reuse the slot.
// In this world every pair shares all three pool codes (l = n = 3), so each
// attempt runs three full sub-sessions over the clean channel.
TEST(Security, ImpersonationFailsOnEverySubsessionThatReusesTheKeySlot) {
  SecurityWorld w;
  Rng mallory_rng(9);
  core::NodeState mallory(node_id(1), w.ibc.issue(node_id(2)),
                          w.authority.assignment().codes_of(node_id(2)), w.authority,
                          w.params.gamma, mallory_rng);
  core::DndpEngine engine(w.params, w.phy);

  // Mallory initiates, claiming ID 1, toward node 0.
  const core::DndpResult as_initiator = engine.run(mallory, w.nodes[0]);
  ASSERT_GE(as_initiator.shared_codes, 2u);
  EXPECT_EQ(as_initiator.hellos_delivered, as_initiator.shared_codes);
  EXPECT_FALSE(as_initiator.discovered);
  EXPECT_TRUE(as_initiator.mac_failure);
  EXPECT_EQ(as_initiator.subsessions_completed, 0u);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
  EXPECT_EQ(mallory.neighbor(node_id(0)), nullptr);

  // Node 0 initiates; Mallory answers as ID 1.
  const core::DndpResult as_responder = engine.run(w.nodes[0], mallory);
  ASSERT_GE(as_responder.shared_codes, 2u);
  EXPECT_EQ(as_responder.hellos_delivered, as_responder.shared_codes);
  EXPECT_FALSE(as_responder.discovered);
  EXPECT_TRUE(as_responder.mac_failure);
  EXPECT_EQ(as_responder.subsessions_completed, 0u);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
  EXPECT_EQ(mallory.neighbor(node_id(0)), nullptr);

  // The same engine still authenticates the genuine pair on every
  // sub-session, and both ends file the key the authority's keys derive.
  const core::DndpResult honest = engine.run(w.nodes[1], w.nodes[0]);
  EXPECT_TRUE(honest.discovered);
  EXPECT_FALSE(honest.mac_failure);
  EXPECT_EQ(honest.subsessions_completed, honest.shared_codes);
  ASSERT_NE(w.nodes[0].neighbor(node_id(1)), nullptr);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1))->pair_key,
            w.ibc.issue(node_id(0)).shared_key(node_id(1)));
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1))->session_code,
            w.nodes[1].neighbor(node_id(0))->session_code);
}

// A node whose private key for ID 1 was issued by another authority holds
// the right ID and the right codes but the wrong K_AB. The engine's key slot
// and peer cache are filed per ID pair, so they must also be filed per
// authority: whichever side runs first, and whether the outsider initiates or
// answers, every sub-session must fail its MAC check.
TEST(Security, KeyFromAnotherAuthorityFailsEverySubsessionInEitherRole) {
  for (const bool outsider_initiates_first : {true, false}) {
    SCOPED_TRACE(outsider_initiates_first ? "outsider initiates first"
                                          : "outsider answers first");
    SecurityWorld w;
    const crypto::IbcAuthority rogue(778);
    Rng outsider_rng(11);
    core::NodeState outsider(node_id(1), rogue.issue(node_id(1)),
                             w.authority.assignment().codes_of(node_id(1)), w.authority,
                             w.params.gamma, outsider_rng);
    ASSERT_EQ(outsider.key().id(), node_id(1));
    core::DndpEngine engine(w.params, w.phy);

    for (int round = 0; round < 2; ++round) {
      const bool outsider_initiates = (round == 0) == outsider_initiates_first;
      const core::DndpResult result = outsider_initiates ? engine.run(outsider, w.nodes[0])
                                                         : engine.run(w.nodes[0], outsider);
      ASSERT_GE(result.shared_codes, 2u);
      EXPECT_EQ(result.hellos_delivered, result.shared_codes);
      EXPECT_FALSE(result.discovered);
      EXPECT_TRUE(result.mac_failure);
      EXPECT_EQ(result.subsessions_completed, 0u);
      EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
      EXPECT_EQ(outsider.neighbor(node_id(0)), nullptr);
    }

    // The genuine node 1 still authenticates to node 0 on the same engine.
    const core::DndpResult honest = engine.run(w.nodes[1], w.nodes[0]);
    EXPECT_TRUE(honest.discovered);
    EXPECT_FALSE(honest.mac_failure);
    ASSERT_NE(w.nodes[0].neighbor(node_id(1)), nullptr);
    EXPECT_EQ(w.nodes[0].neighbor(node_id(1))->pair_key,
              w.ibc.issue(node_id(0)).shared_key(node_id(1)));
  }
}

TEST(Security, HonestPairStillDiscoversDespiteCapturedThirdParty) {
  SecurityWorld w;
  // Node 2 is captured: its codes leak, the jammer uses them. Nodes 0 and
  // 1 still authenticate each other (reactive jamming may or may not stop
  // them depending on shared codes; with l = n all codes leak, so use the
  // clean channel here and assert the crypto layer is unimpressed by the
  // leak: the pairwise key K_01 is not derivable from node 2's key).
  const crypto::SymmetricKey k01 = w.ibc.issue(node_id(0)).shared_key(node_id(1));
  const crypto::SymmetricKey k21 = w.ibc.issue(node_id(2)).shared_key(node_id(1));
  const crypto::SymmetricKey k20 = w.ibc.issue(node_id(2)).shared_key(node_id(0));
  EXPECT_NE(k01, k21);
  EXPECT_NE(k01, k20);

  core::DndpEngine engine(w.params, w.phy);
  EXPECT_TRUE(engine.run(w.nodes[0], w.nodes[1]).discovered);
}

TEST(Security, MndpSourceImpersonationDroppedAtFirstHop) {
  SecurityWorld w;
  // Honest links: 1-2 (so the request has somewhere to go).
  core::DndpEngine dndp(w.params, w.phy);
  ASSERT_TRUE(dndp.run(w.nodes[1], w.nodes[2]).discovered);

  // Mallory (holding node 2's key) claims to BE node 0 and plants a bogus
  // session link with node 1 so her unicast is delivered. Node 1 must
  // reject the request: SIG never verifies against ID 0.
  Rng mallory_rng(11);
  core::NodeState mallory(node_id(0), w.ibc.issue(node_id(2)),
                          w.authority.assignment().codes_of(node_id(2)), w.authority,
                          w.params.gamma, mallory_rng);
  crypto::SymmetricKey bogus;
  bogus.fill(0x99);
  BitVector na(w.params.l_n);
  BitVector nb(w.params.l_n);
  const BitVector session = crypto::derive_session_code(bogus, na, nb, w.params.N);
  mallory.add_logical_neighbor(node_id(1), core::LogicalNeighbor{bogus, session, false});
  w.nodes[1].add_logical_neighbor(node_id(0), core::LogicalNeighbor{bogus, session, false});

  core::MndpEngine mndp(w.params, w.phy, w.topology, w.ibc.oracle(), false);
  std::vector<core::NodeState> registry;
  registry.push_back(std::move(mallory));  // raw id 0 slot
  registry.push_back(std::move(w.nodes[1]));
  registry.push_back(std::move(w.nodes[2]));
  const core::MndpStats stats = mndp.initiate(registry[0], std::span<core::NodeState>(registry));
  EXPECT_GT(stats.requests_dropped, 0u);
  EXPECT_EQ(stats.discoveries, 0u);
  EXPECT_EQ(stats.responses_sent, 0u);
}

TEST(Security, SessionTrafficForgeryRejected) {
  SecurityWorld w;
  core::DndpEngine dndp(w.params, w.phy);
  ASSERT_TRUE(dndp.run(w.nodes[0], w.nodes[1]).discovered);

  // Mallory knows the session CODE (say she captured node 1 later and read
  // its monitor list) but not the direction keys' future counters; a
  // replayed sealed message must be rejected by the channel's unsealer.
  core::SecureChannel channel(w.nodes[0], w.nodes[1], w.phy);
  ASSERT_TRUE(channel.send_text(node_id(0), "one").has_value());
  // Direct replay is exercised at the crypto layer (crypto_stream_test);
  // here assert the channel-level counters see no rejects for honest use
  // and that sealed bytes differ per message even for equal plaintexts.
  const auto a = channel.send_text(node_id(0), "same");
  const auto b = channel.send_text(node_id(0), "same");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(channel.messages_rejected(), 0u);
}

TEST(Security, CompromisedCodesEnableDosButOnlyUpToTheBound) {
  SecurityWorld w;
  // With l = n = 3 every code leaks when node 2 falls; the DoS campaign
  // against nodes 0 and 1 is still capped at (holders-1)(gamma+1)/code.
  Rng comp_rng(13);
  const adversary::CompromiseModel compromise(w.authority.assignment(), 1, comp_rng);
  adversary::DosCampaign campaign(w.authority.assignment(), compromise.compromised_codes(),
                                  compromise.compromised_nodes(), w.params.gamma,
                                  w.params.t_ver);
  const auto result = campaign.run(100000);
  EXPECT_EQ(result.verifications, campaign.total_verification_bound());
  EXPECT_GT(result.requests_ignored, 0u);
}

}  // namespace
}  // namespace jrsnd
