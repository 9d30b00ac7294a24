//===- tests/PIRKTest.cpp - PIRK integrator tests ----------------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/PIRK.h"

#include "ode/IVP.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ys;

namespace {

double heatErrorPIRK(const ButcherTableau &Base, unsigned M, RKVariant V,
                     int Steps) {
  Heat2DIVP P(10);
  double TEnd = P.suggestedDt() * 24;
  double H = TEnd / Steps;
  Grid Y(P.dims(), P.halo());
  P.initialCondition(Y);
  PIRKIntegrator Integ(Base, M, V);
  PIRKWorkspace WS;
  Integ.integrate(P, 0.0, H, Steps, Y, WS);
  Grid Exact(P.dims(), P.halo());
  P.exactSolution(TEnd, Exact);
  return Grid::maxAbsDiffInterior(Y, Exact);
}

double empiricalOrderPIRK(const ButcherTableau &Base, unsigned M,
                          int BaseSteps) {
  double E1 = heatErrorPIRK(Base, M, RKVariant::StageSeparate, BaseSteps);
  double E2 =
      heatErrorPIRK(Base, M, RKVariant::StageSeparate, BaseSteps * 2);
  return std::log2(E1 / E2);
}

} // namespace

TEST(PIRK, TheoreticalOrderFormula) {
  PIRKIntegrator P0(ButcherTableau::radauIIA2(), 0,
                    RKVariant::StageSeparate);
  EXPECT_EQ(P0.order(), 1u);
  PIRKIntegrator P2(ButcherTableau::radauIIA2(), 2,
                    RKVariant::StageSeparate);
  EXPECT_EQ(P2.order(), 3u); // min(3, 2+1).
  PIRKIntegrator P9(ButcherTableau::radauIIA2(), 9,
                    RKVariant::StageSeparate);
  EXPECT_EQ(P9.order(), 3u); // Capped by the base order.
}

TEST(PIRK, PredictorOnlyIsFirstOrder) {
  double Order = empiricalOrderPIRK(ButcherTableau::gauss2(), 0, 64);
  EXPECT_NEAR(Order, 1.0, 0.3);
}

TEST(PIRK, OneCorrectionIsSecondOrder) {
  double Order = empiricalOrderPIRK(ButcherTableau::gauss2(), 1, 32);
  EXPECT_NEAR(Order, 2.0, 0.35);
}

TEST(PIRK, ThreeCorrectionsReachFourthOrderWithGaussBase) {
  double Order = empiricalOrderPIRK(ButcherTableau::gauss2(), 3, 8);
  EXPECT_GT(Order, 3.2); // min(4, 3+1) = 4 within noise.
}

TEST(PIRK, MoreCorrectorIterationsMoreAccurate) {
  double E0 = heatErrorPIRK(ButcherTableau::radauIIA2(), 0,
                            RKVariant::StageSeparate, 32);
  double E1 = heatErrorPIRK(ButcherTableau::radauIIA2(), 1,
                            RKVariant::StageSeparate, 32);
  double E2 = heatErrorPIRK(ButcherTableau::radauIIA2(), 2,
                            RKVariant::StageSeparate, 32);
  EXPECT_LT(E1, E0);
  EXPECT_LT(E2, E1);
}

TEST(PIRK, FusedVariantMatchesStageSeparate) {
  // The fused corrector under every test fold matches the scalar
  // stage-separate result bit for bit.
  Heat3DIVP Problem(6);
  double H = Problem.suggestedDt();
  Grid YRef(Problem.dims(), Problem.halo());
  Problem.initialCondition(YRef);

  PIRKIntegrator Ref(ButcherTableau::lobattoIIIC3(), 2,
                     RKVariant::StageSeparate);
  PIRKWorkspace WSRef;
  Grid YStart(Problem.dims(), Problem.halo());
  YStart.copyInteriorFrom(YRef);
  Ref.integrate(Problem, 0.0, H, 2, YRef, WSRef);

  for (Fold F : {Fold{1, 1, 1}, Fold{8, 1, 1}, Fold{4, 2, 1}, Fold{2, 2, 2}}) {
    SCOPED_TRACE(F.str());
    Grid YVar(Problem.dims(), Problem.halo(), F);
    YVar.copyInteriorFrom(YStart);
    KernelConfig Config;
    Config.VectorFold = F;
    PIRKIntegrator Var(ButcherTableau::lobattoIIIC3(), 2,
                       RKVariant::FusedArgument, Config);
    PIRKWorkspace WSVar;
    Var.integrate(Problem, 0.0, H, 2, YVar, WSVar);
    EXPECT_EQ(Grid::maxAbsDiffInterior(YRef, YVar), 0.0);
  }
}

TEST(PIRK, SupportsNonStencilOnlyStageSeparate) {
  InverterChainIVP P(16);
  PIRKIntegrator Sep(ButcherTableau::radauIIA2(), 1,
                     RKVariant::StageSeparate);
  PIRKIntegrator Fused(ButcherTableau::radauIIA2(), 1,
                       RKVariant::FusedArgument);
  EXPECT_TRUE(Sep.supports(P));
  EXPECT_FALSE(Fused.supports(P));
}

TEST(PIRK, StepStructureScalesWithCorrector) {
  Heat3DIVP P(6);
  PIRKIntegrator M1(ButcherTableau::radauIIA3(), 1,
                    RKVariant::StageSeparate);
  PIRKIntegrator M3(ButcherTableau::radauIIA3(), 3,
                    RKVariant::StageSeparate);
  RKStepStructure S1 = M1.stepStructure(P);
  RKStepStructure S3 = M3.stepStructure(P);
  // Each extra corrector iteration adds 2 sweeps per stage (axpy + rhs).
  EXPECT_EQ(S3.Sweeps.size() - S1.Sweeps.size(), 2u * 2 * 3);
}

TEST(PIRK, IntegratesInverterChainStably) {
  InverterChainIVP P(32);
  Grid Y(P.dims(), P.halo());
  P.initialCondition(Y);
  PIRKIntegrator Integ(ButcherTableau::radauIIA2(), 2,
                       RKVariant::StageSeparate);
  PIRKWorkspace WS;
  Integ.integrate(P, 0.0, P.suggestedDt(), 40, Y, WS);
  for (long I = 0; I < 32; ++I)
    EXPECT_TRUE(std::isfinite(Y.at(I, 0, 0)));
}
