#include "crypto/ibc.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace jrsnd::crypto {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) { return {s.begin(), s.end()}; }

TEST(Ibc, SharedKeyIsSymmetric) {
  const IbcAuthority authority(1234);
  const IbcPrivateKey ka = authority.issue(node_id(1));
  const IbcPrivateKey kb = authority.issue(node_id(2));
  EXPECT_EQ(ka.shared_key(node_id(2)), kb.shared_key(node_id(1)));
}

TEST(Ibc, DistinctPairsGetDistinctKeys) {
  const IbcAuthority authority(1);
  const IbcPrivateKey ka = authority.issue(node_id(1));
  EXPECT_NE(ka.shared_key(node_id(2)), ka.shared_key(node_id(3)));
}

TEST(Ibc, ThirdPartyDerivesDifferentKey) {
  // C's key agreement with A or B never matches K_AB.
  const IbcAuthority authority(7);
  const IbcPrivateKey ka = authority.issue(node_id(1));
  const IbcPrivateKey kc = authority.issue(node_id(3));
  const SymmetricKey k_ab = ka.shared_key(node_id(2));
  EXPECT_NE(kc.shared_key(node_id(1)), k_ab);
  EXPECT_NE(kc.shared_key(node_id(2)), k_ab);
}

TEST(Ibc, DifferentAuthoritiesAreIncompatible) {
  const IbcAuthority auth1(100);
  const IbcAuthority auth2(200);
  const IbcPrivateKey ka1 = auth1.issue(node_id(1));
  const IbcPrivateKey ka2 = auth2.issue(node_id(1));
  EXPECT_NE(ka1.shared_key(node_id(2)), ka2.shared_key(node_id(2)));
}

TEST(Ibc, AuthoritySetupIsDeterministic) {
  const IbcAuthority auth1(55);
  const IbcAuthority auth2(55);
  EXPECT_EQ(auth1.issue(node_id(9)).shared_key(node_id(10)),
            auth2.issue(node_id(9)).shared_key(node_id(10)));
}

TEST(Ibc, SignatureVerifiesAgainstSignerId) {
  const IbcAuthority authority(42);
  const IbcPrivateKey ka = authority.issue(node_id(17));
  const auto msg = bytes("m-ndp request");
  const IbcSignature sig = ka.sign(msg);
  EXPECT_TRUE(authority.oracle()->verify(node_id(17), msg, sig));
}

TEST(Ibc, SignatureRejectsWrongSigner) {
  const IbcAuthority authority(42);
  const IbcPrivateKey ka = authority.issue(node_id(17));
  const auto msg = bytes("m-ndp request");
  const IbcSignature sig = ka.sign(msg);
  EXPECT_FALSE(authority.oracle()->verify(node_id(18), msg, sig));
}

TEST(Ibc, SignatureRejectsTamperedMessage) {
  const IbcAuthority authority(42);
  const IbcPrivateKey ka = authority.issue(node_id(17));
  const IbcSignature sig = ka.sign(bytes("original"));
  EXPECT_FALSE(authority.oracle()->verify(node_id(17), bytes("tampered"), sig));
}

TEST(Ibc, SignatureRejectsTamperedTag) {
  const IbcAuthority authority(42);
  const IbcPrivateKey ka = authority.issue(node_id(17));
  const auto msg = bytes("payload");
  IbcSignature sig = ka.sign(msg);
  sig.tag[0] ^= 0x01;
  EXPECT_FALSE(authority.oracle()->verify(node_id(17), msg, sig));
}

TEST(Ibc, ForgeryWithOtherPrivateKeyFails) {
  // A compromised node cannot sign on behalf of another identity.
  const IbcAuthority authority(42);
  const IbcPrivateKey attacker = authority.issue(node_id(666));
  const auto msg = bytes("i am node 1");
  const IbcSignature forged = attacker.sign(msg);
  EXPECT_FALSE(authority.oracle()->verify(node_id(1), msg, forged));
}

TEST(Ibc, MacBindsKeyAndMessage) {
  const IbcAuthority authority(8);
  const SymmetricKey k_ab = authority.issue(node_id(1)).shared_key(node_id(2));
  const SymmetricKey k_ac = authority.issue(node_id(1)).shared_key(node_id(3));
  const auto msg = bytes("auth");
  // f_K(.) is HMAC-SHA-256 under the pairwise key, via its prepared schedule.
  const HmacKey f_ab(k_ab);
  const HmacKey f_ac(k_ac);
  EXPECT_EQ(f_ab.mac(msg), HmacKey(k_ab).mac(msg));
  EXPECT_NE(f_ab.mac(msg), f_ac.mac(msg));
  EXPECT_NE(f_ab.mac(msg), f_ab.mac(bytes("auth2")));
}

class IbcPairSweep : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(IbcPairSweep, AgreementHoldsForArbitraryIds) {
  const auto [ia, ib] = GetParam();
  const IbcAuthority authority(999);
  EXPECT_EQ(authority.issue(node_id(ia)).shared_key(node_id(ib)),
            authority.issue(node_id(ib)).shared_key(node_id(ia)));
}

INSTANTIATE_TEST_SUITE_P(Pairs, IbcPairSweep,
                         ::testing::Values(std::make_pair(0u, 1u), std::make_pair(5u, 5000u),
                                           std::make_pair(65535u, 2u),
                                           std::make_pair(123u, 321u),
                                           std::make_pair(1999u, 0u)));

}  // namespace
}  // namespace jrsnd::crypto
