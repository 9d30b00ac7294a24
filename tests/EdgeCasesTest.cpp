//===- tests/EdgeCasesTest.cpp - edge-case coverage ---------------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cachesim/StencilTrace.h"
#include "codegen/KernelExecutor.h"
#include "codegen/SourceEmitter.h"
#include "ode/Adaptive.h"
#include "ode/IVP.h"
#include "offsite/Database.h"
#include "solution/StencilSolution.h"
#include "support/ThreadPool.h"
#include "verify/GridPatterns.h"
#include "verify/ReferenceInterpreter.h"

#include <gtest/gtest.h>

using namespace ys;

TEST(EdgeCases, ThreadPoolReversedAndSingletonRanges) {
  ThreadPool Pool(4);
  int Count = 0;
  Pool.parallelFor(10, 5, [&](long) { ++Count; }); // Empty (end < begin).
  EXPECT_EQ(Count, 0);
  Pool.parallelFor(7, 8, [&](long I) {
    EXPECT_EQ(I, 7);
    ++Count;
  });
  EXPECT_EQ(Count, 1);
}

TEST(EdgeCases, GridSinglePlaneAndColumn) {
  // Degenerate extents must address correctly.
  Grid Plane({16, 16, 1}, 1);
  Plane.at(15, 15, 0) = 1.0;
  EXPECT_EQ(Plane.at(15, 15, 0), 1.0);
  Grid Column({64, 1, 1}, 2);
  Column.at(63, 0, 0) = 2.0;
  EXPECT_EQ(Column.at(63, 0, 0), 2.0);
  EXPECT_EQ(Column.at(-2, 0, 0), 0.0);
}

TEST(EdgeCases, ExecutorOnDegenerateGrids) {
  // 1-D chain stencil on an Nx1x1 grid.
  StencilSpec S = StencilSpec::line1d(2);
  GridDims Dims{32, 1, 1};
  Grid In(Dims, 2), OutRef(Dims, 2), OutCfg(Dims, 2);
  const uint64_t Seed = 3;
  fillPattern(In, GridPattern::Random, Seed);
  ReferenceInterpreter(S).runSweep({&In}, OutRef);
  KernelConfig C;
  C.Block.X = 5;
  KernelExecutor Exec(S, C);
  Exec.runSweep({&In}, OutCfg);
  EXPECT_EQ(Grid::maxAbsDiffInterior(OutRef, OutCfg), 0.0)
      << "pattern=random seed=" << Seed;
}

TEST(EdgeCases, WavefrontDepthLargerThanSteps) {
  // runTimeSteps with Steps < depth must fall back to plain sweeps.
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{8, 8, 8};
  Grid A(Dims, 1), B(Dims, 1);
  const uint64_t Seed = 4;
  fillPattern(A, GridPattern::Random, Seed);
  B.copyInteriorFrom(A);
  Grid S1(Dims, 1), S2(Dims, 1);
  KernelExecutor Plain(S, KernelConfig());
  Plain.runTimeSteps(A, S1, 3);
  KernelConfig Wf;
  Wf.WavefrontDepth = 8;
  Wf.Block.Z = 2;
  KernelExecutor Wave(S, Wf);
  Wave.runTimeSteps(B, S2, 3);
  EXPECT_EQ(Grid::maxAbsDiffInterior(A, B), 0.0)
      << "pattern=random seed=" << Seed;
}

TEST(EdgeCases, AdaptiveZeroLengthInterval) {
  Heat2DIVP P(8);
  Grid Y(P.dims(), P.halo());
  P.initialCondition(Y);
  ExplicitRKIntegrator Integ(ButcherTableau::fehlberg45(),
                             RKVariant::StageSeparate);
  RKWorkspace WS;
  AdaptiveOptions Opts;
  AdaptiveResult R =
      integrateAdaptive(Integ, P, 1.0, 1.0, 0.1, Y, WS, Opts);
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.AcceptedSteps, 0u);
}

TEST(EdgeCases, DatabaseNearestWithSingleRecordAndTies) {
  TuningDatabase Db;
  TuningRecord R;
  R.Machine = "M";
  R.Method = "rk4";
  R.Problem = "heat3d";
  R.Dims = {64, 64, 64};
  R.Cores = 1;
  R.VariantName = "only";
  Db.insert(R);
  const TuningRecord *Hit =
      Db.lookupNearest("M", "rk4", "heat3d", {8, 8, 8}, 1);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->VariantName, "only");
}

TEST(EdgeCases, EmitterSingleNegativeCoefficient) {
  StencilSpec S("neg", {{0, 0, 0, -1.0, 0}});
  std::string E = SourceEmitter::emitExpression(S);
  EXPECT_NE(E.find("-1"), std::string::npos);
  std::string Dsl = SourceEmitter::emitDsl(S);
  EXPECT_NE(Dsl.find("= -u0[x,y,z];"), std::string::npos);
}

TEST(EdgeCases, SolutionSingleEquationPlanDescription) {
  auto SolOr = StencilSolution::fromDslSource(
      "stencil s { grid u, v; v[x,y,z] = u[x+1,y,z]; }", {8, 8, 8});
  ASSERT_TRUE(static_cast<bool>(SolOr));
  std::string Desc = SolOr->describePlan();
  EXPECT_NE(Desc.find("sweep 0: v"), std::string::npos);
  EXPECT_EQ(Desc.find("fused"), std::string::npos);
}

TEST(EdgeCases, TraceRunnerCustomHalo) {
  // Halo wider than the radius shifts addresses but not per-LUP traffic
  // materially.
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{32, 32, 16};
  CacheHierarchySim SimA({{"L1", 8 * 1024, 8, 64}});
  CacheHierarchySim SimB({{"L1", 8 * 1024, 8, 64}});
  double A = StencilTraceRunner(S, Dims, {}, 1).run(SimA, 2)
                 .BytesPerLup.back();
  double B = StencilTraceRunner(S, Dims, {}, 4).run(SimB, 2)
                 .BytesPerLup.back();
  EXPECT_NEAR(A, B, 0.25 * A);
}

TEST(EdgeCases, StencilSpecSinglePoint) {
  StencilSpec S("copy", {{0, 0, 0, 1.0, 0}});
  EXPECT_EQ(S.radius(), 0);
  EXPECT_EQ(S.flopsPerLup(), 0u); // Unit coeff, no adds.
  EXPECT_EQ(S.shape(), StencilShape::Star);
  EXPECT_TRUE(S.is1D());
  GridDims Dims{8, 8, 8};
  Grid In(Dims, 0), Out(Dims, 0);
  const uint64_t Seed = 1;
  fillPattern(In, GridPattern::Random, Seed);
  KernelExecutor Exec(S, KernelConfig());
  Exec.runSweep({&In}, Out);
  EXPECT_EQ(Grid::maxAbsDiffInterior(In, Out), 0.0)
      << "pattern=random seed=" << Seed;
}
