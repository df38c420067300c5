#include "predist/revocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"

namespace jrsnd::predist {
namespace {

std::vector<CodeId> three_codes() { return {code_id(1), code_id(2), code_id(3)}; }

TEST(Revocation, FreshStateIsAllUsable) {
  const RevocationState state(5, three_codes());
  EXPECT_TRUE(state.is_usable(code_id(1)));
  EXPECT_FALSE(state.is_revoked(code_id(1)));
  EXPECT_EQ(state.usable_codes().size(), 3u);
  EXPECT_EQ(state.total_invalid_verifications(), 0u);
}

TEST(Revocation, UnknownCodeIsNotUsable) {
  const RevocationState state(5, three_codes());
  EXPECT_FALSE(state.is_usable(code_id(99)));
  EXPECT_FALSE(state.is_revoked(code_id(99)));
  EXPECT_EQ(state.invalid_count(code_id(99)), 0u);
}

TEST(Revocation, ThresholdCrossingRevokes) {
  RevocationState state(3, three_codes());
  EXPECT_FALSE(state.report_invalid(code_id(1)));  // 1
  EXPECT_FALSE(state.report_invalid(code_id(1)));  // 2
  EXPECT_FALSE(state.report_invalid(code_id(1)));  // 3 == gamma: not yet
  EXPECT_TRUE(state.report_invalid(code_id(1)));   // 4 > gamma: revoked
  EXPECT_TRUE(state.is_revoked(code_id(1)));
  EXPECT_FALSE(state.is_usable(code_id(1)));
  EXPECT_EQ(state.usable_codes().size(), 2u);
}

TEST(Revocation, RevokedCodeStopsCounting) {
  RevocationState state(1, three_codes());
  (void)state.report_invalid(code_id(2));
  (void)state.report_invalid(code_id(2));  // revokes (2 > 1)
  ASSERT_TRUE(state.is_revoked(code_id(2)));
  const std::uint64_t before = state.total_invalid_verifications();
  EXPECT_FALSE(state.report_invalid(code_id(2)));  // no longer de-spread
  EXPECT_EQ(state.total_invalid_verifications(), before);
}

TEST(Revocation, PerCodeCountersAreIndependent) {
  RevocationState state(2, three_codes());
  (void)state.report_invalid(code_id(1));
  (void)state.report_invalid(code_id(1));
  (void)state.report_invalid(code_id(2));
  EXPECT_EQ(state.invalid_count(code_id(1)), 2u);
  EXPECT_EQ(state.invalid_count(code_id(2)), 1u);
  EXPECT_EQ(state.invalid_count(code_id(3)), 0u);
  EXPECT_FALSE(state.is_revoked(code_id(1)));
}

TEST(Revocation, GammaZeroRevokesOnFirstReport) {
  RevocationState state(0, three_codes());
  EXPECT_TRUE(state.report_invalid(code_id(3)));
  EXPECT_TRUE(state.is_revoked(code_id(3)));
  EXPECT_EQ(state.total_invalid_verifications(), 1u);
}

TEST(Revocation, ReportOnUnknownCodeThrows) {
  RevocationState state(5, three_codes());
  EXPECT_THROW((void)state.report_invalid(code_id(99)), std::invalid_argument);
}

TEST(Revocation, TotalCountsAcrossCodes) {
  RevocationState state(10, three_codes());
  for (int i = 0; i < 4; ++i) (void)state.report_invalid(code_id(1));
  for (int i = 0; i < 6; ++i) (void)state.report_invalid(code_id(2));
  EXPECT_EQ(state.total_invalid_verifications(), 10u);
}

TEST(Revocation, WorstCaseCostIsGammaPlusOnePerCode) {
  // The defence bound: a node verifies at most gamma+1 bad requests per
  // code before going deaf on it.
  const std::uint32_t gamma = 7;
  RevocationState state(gamma, three_codes());
  for (int i = 0; i < 100; ++i) (void)state.report_invalid(code_id(1));
  EXPECT_EQ(state.total_invalid_verifications(), gamma + 1u);
}

TEST(Revocation, UsableCodesTrackRandomRevocationInterleavings) {
  // Property: after any interleaving of report_invalid and revoke —
  // repeats, already-revoked codes and codes never held included — the
  // maintained usable_codes() is strictly ascending and equals the
  // held-and-not-revoked set recomputed from scratch, and the reference it
  // returns keeps naming the live list.
  Rng rng(2011);
  for (int trial = 0; trial < 200; ++trial) {
    // Held codes drawn from [0, 64) in random order, with duplicates.
    std::vector<CodeId> held;
    const std::size_t count = 1 + rng.uniform(24);
    for (std::size_t i = 0; i < count; ++i) {
      held.push_back(code_id(static_cast<std::uint32_t>(rng.uniform(64))));
    }
    const auto gamma = static_cast<std::uint32_t>(rng.uniform(4));
    RevocationState state(gamma, held);
    const std::vector<CodeId>& usable = state.usable_codes();
    std::set<CodeId> revoked;
    std::map<CodeId, std::uint32_t> invalid;

    for (int step = 0; step < 80; ++step) {
      // Codes in [0, 72): mostly held, some never held.
      const CodeId code = code_id(static_cast<std::uint32_t>(rng.uniform(72)));
      const bool is_held = std::find(held.begin(), held.end(), code) != held.end();
      if (rng.bernoulli(0.7)) {
        if (!is_held) {
          EXPECT_THROW((void)state.report_invalid(code), std::invalid_argument);
        } else {
          const bool was_revoked = revoked.contains(code);
          const bool crossed = !was_revoked && ++invalid[code] > gamma;
          EXPECT_EQ(state.report_invalid(code), crossed);
          if (crossed) revoked.insert(code);
        }
      } else {
        const bool expect_revoke = is_held && !revoked.contains(code);
        EXPECT_EQ(state.revoke(code), expect_revoke);
        if (expect_revoke) revoked.insert(code);
      }

      std::set<CodeId> expected_set;
      for (const CodeId c : held) {
        if (!revoked.contains(c)) expected_set.insert(c);
      }
      const std::vector<CodeId> expected(expected_set.begin(), expected_set.end());
      ASSERT_EQ(&state.usable_codes(), &usable);
      ASSERT_EQ(usable, expected) << "trial " << trial << " step " << step;
      ASSERT_TRUE(std::adjacent_find(usable.begin(), usable.end(),
                                     std::greater_equal<CodeId>()) == usable.end());
      for (const CodeId c : usable) EXPECT_TRUE(state.is_usable(c));
    }
  }
}

}  // namespace
}  // namespace jrsnd::predist
