//===- tests/KernelPlanTest.cpp - compiled kernel plan tests ---------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the compiled-kernel-plan layer: the fold-linear offset
/// invariant on edge folds and non-dividing dims, direct plan execution
/// against the reference, unit-stride point detection, SIMD target
/// selection (YS_SIMD parsing/override/fallback), and the plan-lifecycle
/// regressions (one build per geometry, rebuild on geometry or target
/// change — never one per tile).
///
//===----------------------------------------------------------------------===//

#include "codegen/KernelExecutor.h"
#include "codegen/KernelPlan.h"
#include "support/Random.h"
#include "verify/ReferenceInterpreter.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace ys;

//===----------------------------------------------------------------------===//
// Fold-linear offset tables (the math the plans are built on)
//===----------------------------------------------------------------------===//

TEST(FoldLinearIndexing, NeighborOffsetMatchesLinearIndexEverywhere) {
  // blockBaseIndex(V) + foldNeighborOffset(L, D) must equal the linear
  // index of the neighbor, for every block, lane, and in-halo delta —
  // including folds that do not divide the padded extents.
  const Fold Folds[] = {{1, 1, 1}, {8, 1, 1}, {3, 2, 1}, {2, 2, 2}};
  const GridDims Dims{7, 5, 4}; // Non-multiples of every fold above.
  const int Halo = 2;
  for (const Fold &F : Folds) {
    SCOPED_TRACE(F.str());
    Grid G(Dims, Halo, F);
    for (long Z = 0; Z < Dims.Nz; ++Z)
      for (long Y = 0; Y < Dims.Ny; ++Y)
        for (long X = 0; X < Dims.Nx; ++X) {
          // Recover (block, lane) of this cell from its padded coords.
          long Gx = X + Halo, Gy = Y + Halo, Gz = Z + Halo;
          long Vx = Gx / F.X, Vy = Gy / F.Y, Vz = Gz / F.Z;
          int Lane = static_cast<int>(((Gz % F.Z) * F.Y + Gy % F.Y) * F.X +
                                      Gx % F.X);
          size_t Base = G.blockBaseIndex(Vx, Vy, Vz);
          ASSERT_EQ(Base + static_cast<size_t>(G.foldNeighborOffset(
                               Lane, 0, 0, 0)),
                    G.linearIndex(X, Y, Z));
          for (int Dz = -Halo; Dz <= Halo; ++Dz)
            for (int Dy = -Halo; Dy <= Halo; ++Dy)
              for (int Dx = -Halo; Dx <= Halo; ++Dx) {
                long Off = G.foldNeighborOffset(Lane, Dx, Dy, Dz);
                ASSERT_EQ(static_cast<long>(Base) + Off,
                          static_cast<long>(
                              G.linearIndex(X + Dx, Y + Dy, Z + Dz)))
                    << "cell (" << X << "," << Y << "," << Z
                    << ") delta (" << Dx << "," << Dy << "," << Dz << ")";
              }
        }
  }
}

TEST(FoldLinearIndexing, LaneCoordsRoundTrip) {
  Grid G({8, 8, 8}, 1, {2, 2, 2});
  for (int Lane = 0; Lane < G.foldElems(); ++Lane) {
    int Ix, Iy, Iz;
    G.laneCoords(Lane, Ix, Iy, Iz);
    EXPECT_EQ((Iz * 2 + Iy) * 2 + Ix, Lane);
  }
}

//===----------------------------------------------------------------------===//
// SIMD target selection
//===----------------------------------------------------------------------===//

TEST(SimdTargets, NamesParseAndRoundTrip) {
  EXPECT_EQ(parseSimdTarget("scalar"), SimdTarget::Scalar);
  EXPECT_EQ(parseSimdTarget("avx2"), SimdTarget::AVX2);
  EXPECT_EQ(parseSimdTarget("avx512"), SimdTarget::AVX512);
  EXPECT_EQ(parseSimdTarget("avx512f"), SimdTarget::AVX512);
  EXPECT_FALSE(parseSimdTarget("sse").has_value());
  EXPECT_FALSE(parseSimdTarget("").has_value());
  for (SimdTarget T : availableSimdTargets())
    EXPECT_EQ(parseSimdTarget(simdTargetName(T)), T);
}

TEST(SimdTargets, WidthsAndAvailabilityOrdering) {
  EXPECT_EQ(simdTargetDoubles(SimdTarget::Scalar), 1u);
  EXPECT_EQ(simdTargetDoubles(SimdTarget::AVX2), 4u);
  EXPECT_EQ(simdTargetDoubles(SimdTarget::AVX512), 8u);
  const std::vector<SimdTarget> &Avail = availableSimdTargets();
  ASSERT_FALSE(Avail.empty());
  EXPECT_EQ(Avail.front(), SimdTarget::Scalar); // Always compiled in.
  for (size_t I = 1; I < Avail.size(); ++I)
    EXPECT_LT(simdTargetDoubles(Avail[I - 1]), simdTargetDoubles(Avail[I]));
  EXPECT_EQ(bestSimdTarget(), Avail.back());
}

TEST(SimdTargets, EnvOverrideAndFallback) {
  ASSERT_EQ(setenv("YS_SIMD", "scalar", 1), 0);
  EXPECT_EQ(selectSimdTarget(), SimdTarget::Scalar);
  // An unknown name falls back to the widest available target (with a
  // one-time warning) instead of failing.
  ASSERT_EQ(setenv("YS_SIMD", "definitely-not-a-target", 1), 0);
  EXPECT_EQ(selectSimdTarget(), bestSimdTarget());
  unsetenv("YS_SIMD");
  EXPECT_EQ(selectSimdTarget(), bestSimdTarget());
}

//===----------------------------------------------------------------------===//
// Plan construction and direct execution
//===----------------------------------------------------------------------===//

namespace {

void fillDeterministic(Grid &G, uint64_t Seed) {
  Rng R(Seed);
  G.fillRandom(R);
}

} // namespace

TEST(KernelPlan, DirectRunMatchesReferenceOnNonDividingFold) {
  // The plan executed standalone (construct, bind, runRange over the
  // whole interior) must reproduce the reference exactly, on a fold that
  // divides neither extent.
  StencilSpec Spec = StencilSpec::star3d(2);
  GridDims Dims{11, 7, 5};
  KernelConfig C;
  C.VectorFold = {8, 1, 1};
  Grid In(Dims, 2, C.VectorFold), Out(Dims, 2, C.VectorFold);
  fillDeterministic(In, 7);
  Grid Ref(Dims, 2);
  const Grid *InScalarPtr = &In;
  ReferenceInterpreter(Spec).runSweep({InScalarPtr}, Ref);

  for (SimdTarget T : availableSimdTargets()) {
    SCOPED_TRACE(simdTargetName(T));
    KernelPlan Plan(Spec, C, In, T);
    EXPECT_EQ(Plan.target(), T);
    EXPECT_TRUE(Plan.matchesGeometry(Out));
    const Grid *InPtr = &In;
    Plan.bind(&InPtr, 1, Out);
    Plan.runRange(0, Dims.Nz, 0, Dims.Ny, 0, Dims.Nx);
    EXPECT_EQ(Grid::maxAbsDiffInterior(Ref, Out), 0.0);
  }
}

TEST(KernelPlan, GeometryMismatchDetected) {
  StencilSpec Spec = StencilSpec::heat3d();
  KernelConfig C;
  C.VectorFold = {2, 2, 1};
  Grid Proto({10, 8, 6}, 1, C.VectorFold);
  KernelPlan Plan(Spec, C, Proto, SimdTarget::Scalar);
  EXPECT_TRUE(Plan.matchesGeometry(Proto));
  Grid OtherDims({12, 8, 6}, 1, C.VectorFold);
  EXPECT_FALSE(Plan.matchesGeometry(OtherDims));
  Grid OtherFold({10, 8, 6}, 1, Fold{4, 1, 1});
  EXPECT_FALSE(Plan.matchesGeometry(OtherFold));
  Grid OtherHalo({10, 8, 6}, 2, C.VectorFold);
  EXPECT_FALSE(Plan.matchesGeometry(OtherHalo));
}

TEST(KernelPlan, UnitStridePointDetection) {
  // An x-only fold stores x contiguously (consecutive x blocks are
  // foldElems() apart), so every heat3d point — x neighbors included —
  // loads with unit stride.  A 2-D fold breaks that for the x and y
  // neighbors: their lane offsets wrap inside the fold, leaving only the
  // center and z neighbors (whole-block shifts) unit-stride.
  StencilSpec Spec = StencilSpec::heat3d();
  GridDims Dims{16, 8, 8};
  {
    KernelConfig C;
    C.VectorFold = {8, 1, 1};
    Grid Proto(Dims, 1, C.VectorFold);
    KernelPlan Plan(Spec, C, Proto, SimdTarget::Scalar);
    EXPECT_EQ(Plan.numUnitStridePoints(), 7u);
  }
  {
    KernelConfig C;
    C.VectorFold = {2, 2, 1};
    Grid Proto(Dims, 1, C.VectorFold);
    KernelPlan Plan(Spec, C, Proto, SimdTarget::Scalar);
    EXPECT_EQ(Plan.numUnitStridePoints(), 3u);
  }
}

//===----------------------------------------------------------------------===//
// Plan lifecycle in the executor (the per-tile allocation regression)
//===----------------------------------------------------------------------===//

TEST(KernelPlanLifecycle, OneBuildPerRunTimeSteps) {
  // Regression: plan construction must happen once per geometry, not
  // once per tile or per sweep.  A blocked multi-step run over many
  // cache blocks still costs exactly one build.
  StencilSpec Spec = StencilSpec::heat3d();
  GridDims Dims{12, 10, 8};
  KernelConfig C;
  C.VectorFold = {4, 1, 1};
  C.Block = {4, 4, 2}; // 3 x 3 x 4 = 36 block ranges per sweep.
  KernelExecutor Exec(Spec, C);
  EXPECT_EQ(Exec.planBuilds(), 0u);

  Grid U(Dims, 1, C.VectorFold), V(Dims, 1, C.VectorFold);
  fillDeterministic(U, 3);
  V.copyHaloFrom(U);
  Exec.runTimeSteps(U, V, 5);
  EXPECT_EQ(Exec.planBuilds(), 1u);

  // Further runs on the same geometry reuse the plan.
  Exec.runTimeSteps(U, V, 3);
  const Grid *UPtr = &U;
  Exec.runSweep(&UPtr, 1, V);
  EXPECT_EQ(Exec.planBuilds(), 1u);

  // A different geometry forces exactly one rebuild.
  Grid U2({8, 8, 8}, 1, C.VectorFold), V2({8, 8, 8}, 1, C.VectorFold);
  fillDeterministic(U2, 4);
  V2.copyHaloFrom(U2);
  Exec.runTimeSteps(U2, V2, 2);
  EXPECT_EQ(Exec.planBuilds(), 2u);
}

TEST(KernelPlanLifecycle, WavefrontAlsoBuildsOnce) {
  StencilSpec Spec = StencilSpec::star3d(1);
  GridDims Dims{10, 8, 12};
  KernelConfig C;
  C.VectorFold = {2, 2, 1};
  C.WavefrontDepth = 3;
  C.Block = {0, 4, 4};
  KernelExecutor Exec(Spec, C);
  Grid U(Dims, 1, C.VectorFold), V(Dims, 1, C.VectorFold);
  fillDeterministic(U, 9);
  V.copyHaloFrom(U);
  Exec.runTimeSteps(U, V, 6); // Two macro-steps.
  EXPECT_EQ(Exec.planBuilds(), 1u);
}

TEST(KernelPlanLifecycle, SimdTargetChangeRebuilds) {
  const std::vector<SimdTarget> &Avail = availableSimdTargets();
  StencilSpec Spec = StencilSpec::heat3d();
  GridDims Dims{10, 6, 6};
  KernelConfig C;
  C.VectorFold = {4, 1, 1};
  KernelExecutor Exec(Spec, C);
  Grid U(Dims, 1, C.VectorFold), V(Dims, 1, C.VectorFold);
  fillDeterministic(U, 5);
  V.copyHaloFrom(U);

  ASSERT_EQ(setenv("YS_SIMD", "scalar", 1), 0);
  Exec.runTimeSteps(U, V, 2);
  EXPECT_EQ(Exec.planBuilds(), 1u);
  EXPECT_EQ(Exec.planTarget(), SimdTarget::Scalar);

  if (Avail.size() > 1) {
    // Switching the override invalidates the cached plan...
    ASSERT_EQ(setenv("YS_SIMD", simdTargetName(Avail.back()), 1), 0);
    Exec.runTimeSteps(U, V, 2);
    EXPECT_EQ(Exec.planBuilds(), 2u);
    EXPECT_EQ(Exec.planTarget(), Avail.back());
    // ...and a repeat on the same target does not.
    Exec.runTimeSteps(U, V, 2);
    EXPECT_EQ(Exec.planBuilds(), 2u);
  }
  unsetenv("YS_SIMD");
}
