//===- tests/ButcherTableauTest.cpp - tableau consistency -------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/ButcherTableau.h"

#include <gtest/gtest.h>

using namespace ys;

namespace ys {
// Print a tableau by name: the default byte dump holds heap addresses, and
// gtest_discover_tests copies the printed value into the test name.
static void PrintTo(const ButcherTableau &T, std::ostream *OS) {
  *OS << T.Name;
}
} // namespace ys

class ExplicitTableauTest : public ::testing::TestWithParam<ButcherTableau> {
};

TEST_P(ExplicitTableauTest, ConsistentAndExplicit) {
  const ButcherTableau &T = GetParam();
  EXPECT_EQ(T.checkConsistency(), "") << T.Name;
  EXPECT_TRUE(T.isExplicit()) << T.Name;
  EXPECT_GE(T.Order, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllExplicit, ExplicitTableauTest,
    ::testing::ValuesIn(ButcherTableau::allExplicit()),
    [](const ::testing::TestParamInfo<ButcherTableau> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

class ImplicitTableauTest : public ::testing::TestWithParam<ButcherTableau> {
};

TEST_P(ImplicitTableauTest, ConsistentAndImplicit) {
  const ButcherTableau &T = GetParam();
  EXPECT_EQ(T.checkConsistency(), "") << T.Name;
  EXPECT_FALSE(T.isExplicit()) << T.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllImplicit, ImplicitTableauTest,
    ::testing::ValuesIn(ButcherTableau::allImplicitBases()),
    [](const ::testing::TestParamInfo<ButcherTableau> &Info) {
      return Info.param.Name;
    });

TEST(ButcherTableau, StageCounts) {
  EXPECT_EQ(ButcherTableau::explicitEuler().Stages, 1u);
  EXPECT_EQ(ButcherTableau::classicRK4().Stages, 4u);
  EXPECT_EQ(ButcherTableau::fehlberg45().Stages, 6u);
  EXPECT_EQ(ButcherTableau::dormandPrince54().Stages, 7u);
}

TEST(ButcherTableau, EmbeddedPairsPresent) {
  EXPECT_TRUE(ButcherTableau::fehlberg45().hasEmbedded());
  EXPECT_TRUE(ButcherTableau::dormandPrince54().hasEmbedded());
  EXPECT_TRUE(ButcherTableau::cashKarp45().hasEmbedded());
  EXPECT_TRUE(ButcherTableau::bogackiShampine32().hasEmbedded());
  EXPECT_FALSE(ButcherTableau::classicRK4().hasEmbedded());
}

TEST(ButcherTableau, NonzeroACounts) {
  EXPECT_EQ(ButcherTableau::explicitEuler().numNonzeroA(), 0u);
  EXPECT_EQ(ButcherTableau::classicRK4().numNonzeroA(), 3u);
  // Gauss 2-stage is dense: 4 nonzeros.
  EXPECT_EQ(ButcherTableau::gauss2().numNonzeroA(), 4u);
}

TEST(ButcherTableau, ConsistencyCatchesBadWeights) {
  ButcherTableau T = ButcherTableau::classicRK4();
  T.B[0] += 0.1;
  EXPECT_NE(T.checkConsistency(), "");
}

TEST(ButcherTableau, ConsistencyCatchesBadRowSums) {
  ButcherTableau T = ButcherTableau::classicRK4();
  T.C[1] = 0.7; // a(1,0) = 0.5 != c(1).
  EXPECT_NE(T.checkConsistency(), "");
}

TEST(ButcherTableau, ConsistencyCatchesBrokenOrderCondition) {
  // Keep sum(b)=1 and row sums, but break b.c = 1/2.
  ButcherTableau T = ButcherTableau::heun2();
  T.B = {0.4, 0.6}; // sum = 1 but b.c = 0.6 != 0.5.
  EXPECT_NE(T.checkConsistency(), "");
}

TEST(ButcherTableau, ConsistencyCatchesDimensionMismatch) {
  ButcherTableau T = ButcherTableau::heun2();
  T.B.pop_back();
  EXPECT_NE(T.checkConsistency(), "");
}

TEST(ButcherTableau, DormandPrinceFSAL) {
  // DOPRI54's last stage equals its b row (FSAL property).
  ButcherTableau T = ButcherTableau::dormandPrince54();
  for (unsigned J = 0; J < T.Stages; ++J)
    EXPECT_DOUBLE_EQ(T.a(6, J), T.b(J));
}
