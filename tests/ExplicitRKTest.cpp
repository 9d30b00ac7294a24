//===- tests/ExplicitRKTest.cpp - RK integrator tests -----------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/ExplicitRK.h"

#include "ode/IVP.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ys;

namespace {

/// Integrates Heat2D (semi-discrete exact solution available) over a fixed
/// horizon with the given step count and returns the max-norm error.
double heatError(const ButcherTableau &TB, RKVariant V, int Steps) {
  Heat2DIVP P(10);
  double TEnd = P.suggestedDt() * 32; // Stable for all tested methods.
  double H = TEnd / Steps;
  Grid Y(P.dims(), P.halo());
  P.initialCondition(Y);
  ExplicitRKIntegrator Integ(TB, V);
  RKWorkspace WS;
  Integ.integrate(P, 0.0, H, Steps, Y, WS);
  Grid Exact(P.dims(), P.halo());
  P.exactSolution(TEnd, Exact);
  return Grid::maxAbsDiffInterior(Y, Exact);
}

/// Empirical convergence order from halving the step size.
double empiricalOrder(const ButcherTableau &TB, int BaseSteps) {
  double E1 = heatError(TB, RKVariant::StageSeparate, BaseSteps);
  double E2 = heatError(TB, RKVariant::StageSeparate, BaseSteps * 2);
  return std::log2(E1 / E2);
}

} // namespace

TEST(ExplicitRK, EulerIsFirstOrder) {
  double Order = empiricalOrder(ButcherTableau::explicitEuler(), 64);
  EXPECT_NEAR(Order, 1.0, 0.25);
}

TEST(ExplicitRK, HeunIsSecondOrder) {
  double Order = empiricalOrder(ButcherTableau::heun2(), 32);
  EXPECT_NEAR(Order, 2.0, 0.3);
}

TEST(ExplicitRK, Kutta3IsThirdOrder) {
  // 32+ steps keep lambda*h inside the RK3 stability region for the
  // highest grid mode, so rounding-seeded modes cannot pollute the error.
  double Order = empiricalOrder(ButcherTableau::kutta3(), 32);
  EXPECT_NEAR(Order, 3.0, 0.4);
}

TEST(ExplicitRK, RK4IsFourthOrder) {
  double Order = empiricalOrder(ButcherTableau::classicRK4(), 32);
  EXPECT_NEAR(Order, 4.0, 0.6);
}

TEST(ExplicitRK, HigherOrderIsMoreAccurate) {
  double E1 = heatError(ButcherTableau::explicitEuler(),
                        RKVariant::StageSeparate, 32);
  double E2 = heatError(ButcherTableau::heun2(), RKVariant::StageSeparate,
                        32);
  double E4 = heatError(ButcherTableau::classicRK4(),
                        RKVariant::StageSeparate, 32);
  EXPECT_LT(E2, E1);
  EXPECT_LT(E4, E2);
}

//===----------------------------------------------------------------------===//
// Variant equivalence: every fusion variant computes the same step.
//===----------------------------------------------------------------------===//

struct VariantCase {
  const char *Tableau;
  RKVariant Variant;
  Fold F; ///< Storage fold of the variant's state and workspace.
};

// Print a case by value: the default byte dump holds a string address and
// padding, and gtest_discover_tests copies it into the test name.  The
// scalar fold prints no suffix, so the unfolded cases keep their names.
static void PrintTo(const VariantCase &P, std::ostream *OS) {
  *OS << P.Tableau << '_' << rkVariantName(P.Variant);
  if (!P.F.isScalar())
    *OS << '_' << P.F.str();
}

namespace {

const Fold TestFolds[] = {{1, 1, 1}, {8, 1, 1}, {4, 2, 1}, {2, 2, 2}};

/// Every (tableau, fused variant) pair under every test fold.
std::vector<VariantCase> variantCases() {
  const std::pair<const char *, RKVariant> Pairs[] = {
      {"heun2", RKVariant::FusedArgument}, {"heun2", RKVariant::FusedUpdate},
      {"kutta3", RKVariant::FusedArgument}, {"rk4", RKVariant::FusedArgument},
      {"rk4", RKVariant::FusedUpdate},     {"rkf45", RKVariant::FusedArgument},
      {"dopri54", RKVariant::FusedUpdate}};
  std::vector<VariantCase> Cases;
  for (Fold F : TestFolds)
    for (const auto &[Tableau, Variant] : Pairs)
      Cases.push_back({Tableau, Variant, F});
  return Cases;
}

ButcherTableau tableauByName(const std::string &Name) {
  for (const ButcherTableau &T : ButcherTableau::allExplicit())
    if (T.Name == Name)
      return T;
  ADD_FAILURE() << "unknown tableau " << Name;
  return ButcherTableau::explicitEuler();
}

} // namespace

class VariantEquivalence : public ::testing::TestWithParam<VariantCase> {};

TEST_P(VariantEquivalence, MatchesStageSeparateOnHeat3D) {
  VariantCase P = GetParam();
  ButcherTableau TB = tableauByName(P.Tableau);
  Heat3DIVP Problem(8);
  double H = Problem.suggestedDt();

  Grid YRef(Problem.dims(), Problem.halo());
  Problem.initialCondition(YRef);
  Grid YVar(Problem.dims(), Problem.halo(), P.F);
  YVar.copyInteriorFrom(YRef);

  ExplicitRKIntegrator Ref(TB, RKVariant::StageSeparate);
  RKWorkspace WSRef;
  Ref.integrate(Problem, 0.0, H, 3, YRef, WSRef);

  KernelConfig Config;
  Config.VectorFold = P.F;
  ExplicitRKIntegrator Var(TB, P.Variant, Config);
  ASSERT_TRUE(Var.supports(Problem));
  RKWorkspace WSVar;
  Var.integrate(Problem, 0.0, H, 3, YVar, WSVar);

  EXPECT_EQ(Grid::maxAbsDiffInterior(YRef, YVar), 0.0);
}

TEST_P(VariantEquivalence, MatchesStageSeparateOnReactionDiffusion) {
  VariantCase P = GetParam();
  ButcherTableau TB = tableauByName(P.Tableau);
  ReactionDiffusion3DIVP Problem(6);
  double H = Problem.suggestedDt();

  Grid YRef(Problem.dims(), Problem.halo());
  Problem.initialCondition(YRef);
  Grid YVar(Problem.dims(), Problem.halo(), P.F);
  YVar.copyInteriorFrom(YRef);

  ExplicitRKIntegrator Ref(TB, RKVariant::StageSeparate);
  RKWorkspace WSRef;
  Ref.integrate(Problem, 0.0, H, 2, YRef, WSRef);

  KernelConfig Config;
  Config.VectorFold = P.F;
  ExplicitRKIntegrator Var(TB, P.Variant, Config);
  RKWorkspace WSVar;
  Var.integrate(Problem, 0.0, H, 2, YVar, WSVar);

  EXPECT_EQ(Grid::maxAbsDiffInterior(YRef, YVar), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantEquivalence,
                         ::testing::ValuesIn(variantCases()));

TEST(ExplicitRK, FusedVariantsUnsupportedForNonStencil) {
  InverterChainIVP P(32);
  ExplicitRKIntegrator Fused(ButcherTableau::heun2(),
                             RKVariant::FusedArgument);
  EXPECT_FALSE(Fused.supports(P));
  ExplicitRKIntegrator Separate(ButcherTableau::heun2(),
                                RKVariant::StageSeparate);
  EXPECT_TRUE(Separate.supports(P));
}

TEST(ExplicitRK, IntegratesInverterChain) {
  InverterChainIVP P(32);
  Grid Y(P.dims(), P.halo());
  P.initialCondition(Y);
  ExplicitRKIntegrator Integ(ButcherTableau::classicRK4(),
                             RKVariant::StageSeparate);
  RKWorkspace WS;
  Integ.integrate(P, 0.0, P.suggestedDt(), 50, Y, WS);
  for (long I = 0; I < 32; ++I) {
    EXPECT_TRUE(std::isfinite(Y.at(I, 0, 0)));
    EXPECT_GE(Y.at(I, 0, 0), -1.0);
    EXPECT_LE(Y.at(I, 0, 0), 6.0);
  }
}

TEST(ExplicitRK, EmbeddedErrorEstimateTracksStepSize) {
  Heat2DIVP P(10);
  ExplicitRKIntegrator Integ(ButcherTableau::fehlberg45(),
                             RKVariant::StageSeparate);
  RKWorkspace WS;
  Integ.prepareWorkspace(P, WS);
  double H = P.suggestedDt();

  Grid Y1(P.dims(), P.halo());
  P.initialCondition(Y1);
  Integ.step(P, 0.0, H, Y1, WS);
  double ErrSmall = Integ.lastErrorEstimate();

  Grid Y2(P.dims(), P.halo());
  P.initialCondition(Y2);
  Integ.step(P, 0.0, 8 * H, Y2, WS);
  double ErrLarge = Integ.lastErrorEstimate();

  EXPECT_GT(ErrSmall, 0.0);
  EXPECT_GT(ErrLarge, ErrSmall * 4);
}

TEST(ExplicitRK, StepStructureStageSeparate) {
  Heat3DIVP P(8);
  ExplicitRKIntegrator Integ(ButcherTableau::classicRK4(),
                             RKVariant::StageSeparate);
  RKStepStructure St = Integ.stepStructure(P);
  // RK4: 3 axpy sweeps + 4 RHS sweeps + 1 update = 8.
  EXPECT_EQ(St.Sweeps.size(), 8u);
  unsigned RhsCount = 0;
  for (const auto &S : St.Sweeps)
    RhsCount += S.IsRhs ? 1 : 0;
  EXPECT_EQ(RhsCount, 4u);
}

TEST(ExplicitRK, StepStructureFusedHasFewerSweeps) {
  Heat3DIVP P(8);
  ExplicitRKIntegrator Sep(ButcherTableau::classicRK4(),
                           RKVariant::StageSeparate);
  ExplicitRKIntegrator FusedArg(ButcherTableau::classicRK4(),
                                RKVariant::FusedArgument);
  ExplicitRKIntegrator FusedUpd(ButcherTableau::classicRK4(),
                                RKVariant::FusedUpdate);
  EXPECT_LT(FusedArg.stepStructure(P).Sweeps.size(),
            Sep.stepStructure(P).Sweeps.size());
  EXPECT_LT(FusedUpd.stepStructure(P).Sweeps.size(),
            FusedArg.stepStructure(P).Sweeps.size());
}

TEST(ExplicitRK, WorkspaceReusedAcrossCalls) {
  Heat3DIVP P(6);
  ExplicitRKIntegrator Integ(ButcherTableau::heun2(),
                             RKVariant::StageSeparate);
  RKWorkspace WS;
  Integ.prepareWorkspace(P, WS);
  const double *KPtr = WS.K[0].data();
  Integ.prepareWorkspace(P, WS); // Same shape: no reallocation.
  EXPECT_EQ(WS.K[0].data(), KPtr);
}

TEST(ExplicitRK, BlockedConfigSameResult) {
  Heat3DIVP P(10);
  KernelConfig Blocked;
  Blocked.Block.Y = 4;
  Blocked.Block.Z = 4;
  Grid YA(P.dims(), P.halo()), YB(P.dims(), P.halo());
  P.initialCondition(YA);
  YB.copyInteriorFrom(YA);
  RKWorkspace WSA, WSB;
  ExplicitRKIntegrator A(ButcherTableau::classicRK4(),
                         RKVariant::StageSeparate);
  ExplicitRKIntegrator B(ButcherTableau::classicRK4(),
                         RKVariant::StageSeparate, Blocked);
  A.integrate(P, 0.0, P.suggestedDt(), 2, YA, WSA);
  B.integrate(P, 0.0, P.suggestedDt(), 2, YB, WSB);
  EXPECT_EQ(Grid::maxAbsDiffInterior(YA, YB), 0.0);
}
