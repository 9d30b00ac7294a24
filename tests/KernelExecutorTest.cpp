//===- tests/KernelExecutorTest.cpp - executor correctness -----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Ground truth is the reference triple loop; every transformed path
/// (blocking, folding, threading, temporal wavefront) must reproduce it
/// exactly (same FP operations per point => bit-identical results).
///
//===----------------------------------------------------------------------===//

#include "codegen/KernelExecutor.h"
#include "verify/ReferenceInterpreter.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace ys;

namespace {

Grid randomGrid(GridDims Dims, int Halo, Fold F = Fold(), uint64_t Seed = 1) {
  Grid G(Dims, Halo, F);
  Rng R(Seed);
  G.fillRandom(R);
  return G;
}

/// Runs reference and configured sweeps and returns the max abs diff.
double sweepDiff(const StencilSpec &Spec, GridDims Dims,
                 const KernelConfig &Config, ThreadPool *Pool = nullptr) {
  int Halo = Spec.radius();
  Grid In = randomGrid(Dims, Halo, Config.VectorFold);
  Grid OutRef(Dims, Halo, Config.VectorFold);
  Grid OutCfg(Dims, Halo, Config.VectorFold);

  ReferenceInterpreter(Spec).runSweep({&In}, OutRef);
  KernelExecutor Exec(Spec, Config);
  Exec.runSweep({&In}, OutCfg, Pool);
  return Grid::maxAbsDiffInterior(OutRef, OutCfg);
}

} // namespace

TEST(KernelExecutor, UnblockedMatchesReference) {
  EXPECT_EQ(sweepDiff(StencilSpec::heat3d(), {16, 14, 12}, KernelConfig()),
            0.0);
}

TEST(KernelExecutor, LargeBoxStencil) {
  // box3d r2 has 125 points; exercises the dynamic point tables.
  EXPECT_EQ(sweepDiff(StencilSpec::box3d(2), {10, 10, 10}, KernelConfig()),
            0.0);
}

TEST(KernelExecutor, MultiInputStencil) {
  StencilSpec S("axpy3", {{0, 0, 0, 1.0, 0},
                          {0, 0, 0, 0.5, 1},
                          {1, 0, 0, 0.25, 2}});
  GridDims Dims{12, 10, 8};
  Grid A = randomGrid(Dims, 1, Fold(), 1);
  Grid B = randomGrid(Dims, 1, Fold(), 2);
  Grid C = randomGrid(Dims, 1, Fold(), 3);
  Grid OutRef(Dims, 1), OutCfg(Dims, 1);
  ReferenceInterpreter(S).runSweep({&A, &B, &C}, OutRef);
  KernelExecutor Exec(S, KernelConfig());
  Exec.runSweep({&A, &B, &C}, OutCfg);
  EXPECT_EQ(Grid::maxAbsDiffInterior(OutRef, OutCfg), 0.0);
}

TEST(KernelExecutor, TimeSteppingEvenOdd) {
  // Result must land in U regardless of step parity.
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{10, 10, 10};
  for (int Steps : {1, 2, 3, 4}) {
    Grid U = randomGrid(Dims, 1);
    Grid Scratch(Dims, 1);
    Grid Want = randomGrid(Dims, 1);
    Grid Tmp(Dims, 1);
    // Reference: repeated out-of-place sweeps.
    for (int T = 0; T < Steps; ++T) {
      ReferenceInterpreter(S).runSweep({&Want}, Tmp);
      Want.copyInteriorFrom(Tmp);
    }
    KernelExecutor Exec(S, KernelConfig());
    Exec.runTimeSteps(U, Scratch, Steps);
    EXPECT_EQ(Grid::maxAbsDiffInterior(U, Want), 0.0) << Steps << " steps";
  }
}

TEST(KernelExecutor, OddStepCopyBackMatchesReferenceOnPool) {
  // Odd step counts end in Scratch and copy back through the pool's
  // same-layout fast path; the result must match the oracle bit for bit.
  StencilSpec Spec = StencilSpec::heat3d();
  GridDims Dims{20, 12, 10};
  ThreadPool Pool(4);
  for (Fold F : {Fold{1, 1, 1}, Fold{8, 1, 1}, Fold{4, 2, 1}, Fold{2, 2, 2}})
    for (int Steps : {1, 3, 7}) {
      SCOPED_TRACE(F.str() + " steps " + std::to_string(Steps));
      KernelConfig C;
      C.VectorFold = F;
      C.Block.Y = 4;
      C.Threads = 4;
      Grid U = randomGrid(Dims, 1, F, 5);
      U.fillHalo(0.25);
      Grid Scratch(Dims, 1, F);
      Scratch.copyHaloFrom(U);
      Grid Ref(Dims, 1);
      Ref.copyInteriorFrom(U);
      Ref.copyHaloFrom(U);
      KernelExecutor(Spec, C).runTimeSteps(U, Scratch, Steps, &Pool);
      ReferenceInterpreter(Spec).runTimeSteps(Ref, Steps);
      for (long Z = 0; Z < Dims.Nz; ++Z)
        for (long Y = 0; Y < Dims.Ny; ++Y)
          for (long X = 0; X < Dims.Nx; ++X) {
            double A = U.at(X, Y, Z), B = Ref.at(X, Y, Z);
            ASSERT_EQ(std::memcmp(&A, &B, sizeof(double)), 0)
                << "(" << X << "," << Y << "," << Z << ")";
          }
      EXPECT_EQ(U.at(-1, 0, 0), 0.25); // Halo untouched.
    }
}

TEST(KernelExecutor, ZeroStepsIsIdentity) {
  GridDims Dims{6, 6, 6};
  Grid U = randomGrid(Dims, 1);
  Grid Copy(Dims, 1);
  Copy.copyInteriorFrom(U);
  Grid Scratch(Dims, 1);
  KernelExecutor Exec(StencilSpec::heat3d(), KernelConfig());
  Exec.runTimeSteps(U, Scratch, 0);
  EXPECT_EQ(Grid::maxAbsDiffInterior(U, Copy), 0.0);
}

TEST(KernelExecutor, ThreadedMatchesReference) {
  ThreadPool Pool(4);
  KernelConfig C;
  C.Threads = 4;
  C.Block.Z = 3; // Uneven block count vs. threads.
  EXPECT_EQ(sweepDiff(StencilSpec::star3d(2), {20, 16, 14}, C, &Pool), 0.0);
}

TEST(KernelExecutor, HaloProvidesBoundary) {
  // Nonzero halo must contribute to edge results.
  StencilSpec S = StencilSpec::star3d(1, 0.0, 1.0);
  GridDims Dims{4, 4, 4};
  Grid In(Dims, 1);
  In.fill(0.0);
  In.fillHalo(2.0);
  Grid Out(Dims, 1);
  ReferenceInterpreter(S).runSweep({&In}, Out);
  // Corner cell sees 3 halo neighbors of value 2.
  EXPECT_DOUBLE_EQ(Out.at(0, 0, 0), 6.0);
  // Center cell sees none.
  EXPECT_DOUBLE_EQ(Out.at(2, 2, 2), 0.0);
}

//===----------------------------------------------------------------------===//
// Property sweep: blocking configurations.
//===----------------------------------------------------------------------===//

struct BlockCase {
  long Bx, By, Bz;
};

class BlockingEquivalence : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockingEquivalence, Heat3dMatchesReference) {
  BlockCase P = GetParam();
  KernelConfig C;
  C.Block.X = P.Bx;
  C.Block.Y = P.By;
  C.Block.Z = P.Bz;
  EXPECT_EQ(sweepDiff(StencilSpec::heat3d(), {17, 13, 11}, C), 0.0);
}

TEST_P(BlockingEquivalence, Star3dR3MatchesReference) {
  BlockCase P = GetParam();
  KernelConfig C;
  C.Block.X = P.Bx;
  C.Block.Y = P.By;
  C.Block.Z = P.Bz;
  EXPECT_EQ(sweepDiff(StencilSpec::star3d(3), {19, 12, 9}, C), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, BlockingEquivalence,
    ::testing::Values(BlockCase{0, 0, 0}, BlockCase{4, 0, 0},
                      BlockCase{0, 4, 0}, BlockCase{0, 0, 4},
                      BlockCase{8, 4, 2}, BlockCase{5, 3, 7},
                      BlockCase{1, 1, 1}, BlockCase{64, 64, 64}));

//===----------------------------------------------------------------------===//
// Property sweep: folded layouts.
//===----------------------------------------------------------------------===//

struct FoldCase {
  int Fx, Fy, Fz;
};

class FoldEquivalence : public ::testing::TestWithParam<FoldCase> {};

TEST_P(FoldEquivalence, FoldedSweepMatchesScalar) {
  FoldCase P = GetParam();
  Fold F;
  F.X = P.Fx;
  F.Y = P.Fy;
  F.Z = P.Fz;
  StencilSpec S = StencilSpec::star3d(1);
  GridDims Dims{14, 10, 9};
  // Scalar reference.
  Grid InScalar = randomGrid(Dims, 1);
  Grid OutScalar(Dims, 1);
  ReferenceInterpreter(S).runSweep({&InScalar}, OutScalar);
  // Folded run with the same values.
  Grid InFolded(Dims, 1, F);
  InFolded.copyInteriorFrom(InScalar);
  Grid OutFolded(Dims, 1, F);
  KernelConfig C;
  C.VectorFold = F;
  C.Block.Y = 4;
  KernelExecutor Exec(S, C);
  Exec.runSweep({&InFolded}, OutFolded);
  EXPECT_EQ(Grid::maxAbsDiffInterior(OutScalar, OutFolded), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Folds, FoldEquivalence,
                         ::testing::Values(FoldCase{8, 1, 1},
                                           FoldCase{4, 2, 1},
                                           FoldCase{2, 2, 2},
                                           FoldCase{1, 4, 2}));

//===----------------------------------------------------------------------===//
// Property sweep: temporal wavefront == plain time stepping.
//===----------------------------------------------------------------------===//

struct WavefrontCase {
  int Depth;
  int Radius;
  long Bz;
  int Steps;
};

class WavefrontEquivalence : public ::testing::TestWithParam<WavefrontCase> {
};

TEST_P(WavefrontEquivalence, MatchesPlainTimeStepping) {
  WavefrontCase P = GetParam();
  StencilSpec S = StencilSpec::star3d(P.Radius);
  GridDims Dims{12, 10, 16};

  Grid UPlain = randomGrid(Dims, P.Radius);
  Grid UWave(Dims, P.Radius);
  UWave.copyInteriorFrom(UPlain);
  Grid S1(Dims, P.Radius), S2(Dims, P.Radius);

  KernelConfig Plain;
  KernelExecutor ExecPlain(S, Plain);
  ExecPlain.runTimeSteps(UPlain, S1, P.Steps);

  KernelConfig Wave;
  Wave.WavefrontDepth = P.Depth;
  Wave.Block.Z = P.Bz;
  KernelExecutor ExecWave(S, Wave);
  ExecWave.runTimeSteps(UWave, S2, P.Steps);

  EXPECT_EQ(Grid::maxAbsDiffInterior(UPlain, UWave), 0.0)
      << "depth=" << P.Depth << " r=" << P.Radius << " bz=" << P.Bz
      << " steps=" << P.Steps;
}

INSTANTIATE_TEST_SUITE_P(
    Waves, WavefrontEquivalence,
    ::testing::Values(WavefrontCase{2, 1, 4, 2}, WavefrontCase{2, 1, 4, 5},
                      WavefrontCase{3, 1, 4, 9}, WavefrontCase{4, 1, 2, 8},
                      WavefrontCase{2, 2, 5, 4}, WavefrontCase{3, 2, 8, 6},
                      WavefrontCase{8, 1, 3, 16},
                      WavefrontCase{2, 1, 16, 4}));

TEST(KernelExecutor, WavefrontWithThreads) {
  ThreadPool Pool(3);
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{12, 12, 12};
  Grid UPlain = randomGrid(Dims, 1);
  Grid UWave(Dims, 1);
  UWave.copyInteriorFrom(UPlain);
  Grid S1(Dims, 1), S2(Dims, 1);

  KernelExecutor ExecPlain(S, KernelConfig());
  ExecPlain.runTimeSteps(UPlain, S1, 4);

  KernelConfig Wave;
  Wave.WavefrontDepth = 2;
  Wave.Block.Z = 4;
  Wave.Block.Y = 5;
  Wave.Threads = 3;
  KernelExecutor ExecWave(S, Wave);
  ExecWave.runTimeSteps(UWave, S2, 4, &Pool);

  EXPECT_EQ(Grid::maxAbsDiffInterior(UPlain, UWave), 0.0);
}

//===----------------------------------------------------------------------===//
// Property sweep: diamond / deep-temporal schedules == plain stepping.
//===----------------------------------------------------------------------===//

struct ScheduleCase {
  Schedule Sched;
  int Depth;
  int Radius;
  long Bz;
  int Steps;
};

class ScheduleEquivalence : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleEquivalence, MatchesPlainTimeStepping) {
  ScheduleCase P = GetParam();
  StencilSpec S = StencilSpec::star3d(P.Radius);
  GridDims Dims{12, 10, 16};

  Grid UPlain = randomGrid(Dims, P.Radius);
  Grid USched(Dims, P.Radius);
  USched.copyInteriorFrom(UPlain);
  Grid S1(Dims, P.Radius), S2(Dims, P.Radius);

  KernelExecutor ExecPlain(S, KernelConfig());
  ExecPlain.runTimeSteps(UPlain, S1, P.Steps);

  KernelConfig C;
  C.Sched = P.Sched;
  C.WavefrontDepth = P.Depth;
  C.Block.Z = P.Bz;
  KernelExecutor ExecSched(S, C);
  ExecSched.runTimeSteps(USched, S2, P.Steps);

  EXPECT_EQ(Grid::maxAbsDiffInterior(UPlain, USched), 0.0)
      << "sched=" << scheduleName(P.Sched) << " depth=" << P.Depth
      << " r=" << P.Radius << " bz=" << P.Bz << " steps=" << P.Steps;
}

INSTANTIATE_TEST_SUITE_P(
    Diamonds, ScheduleEquivalence,
    ::testing::Values(
        // Multi-tile (Nz=16 > W), single-tile degenerate (W >= Nz),
        // odd depth (buffer swap), wide radius, non-multiple steps.
        ScheduleCase{Schedule::Diamond, 2, 1, 4, 4},
        ScheduleCase{Schedule::Diamond, 2, 1, 4, 5},
        ScheduleCase{Schedule::Diamond, 3, 1, 2, 9},
        ScheduleCase{Schedule::Diamond, 2, 2, 8, 4},
        ScheduleCase{Schedule::Diamond, 4, 1, 0, 8},
        ScheduleCase{Schedule::Diamond, 8, 1, 2, 16},
        ScheduleCase{Schedule::Diamond, 2, 1, 32, 6}));

INSTANTIATE_TEST_SUITE_P(
    DeepTemporal, ScheduleEquivalence,
    ::testing::Values(
        // Depths beyond the z extent's skew, odd depths, wide radius,
        // leftover plain steps (steps not a depth multiple).
        ScheduleCase{Schedule::DeepTemporal, 2, 1, 0, 4},
        ScheduleCase{Schedule::DeepTemporal, 3, 1, 4, 9},
        ScheduleCase{Schedule::DeepTemporal, 4, 2, 0, 8},
        ScheduleCase{Schedule::DeepTemporal, 8, 1, 0, 16},
        ScheduleCase{Schedule::DeepTemporal, 16, 1, 0, 16},
        ScheduleCase{Schedule::DeepTemporal, 4, 1, 0, 6}));

TEST(KernelExecutor, DiamondWithThreads) {
  ThreadPool Pool(3);
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{12, 12, 12};
  Grid UPlain = randomGrid(Dims, 1);
  Grid USched(Dims, 1);
  USched.copyInteriorFrom(UPlain);
  Grid S1(Dims, 1), S2(Dims, 1);

  KernelExecutor ExecPlain(S, KernelConfig());
  ExecPlain.runTimeSteps(UPlain, S1, 4);

  KernelConfig C;
  C.Sched = Schedule::Diamond;
  C.WavefrontDepth = 2;
  C.Block.Z = 4;
  C.Block.Y = 5;
  C.Threads = 3;
  KernelExecutor ExecSched(S, C);
  ExecSched.runTimeSteps(USched, S2, 4, &Pool);

  EXPECT_EQ(Grid::maxAbsDiffInterior(UPlain, USched), 0.0);
}

TEST(KernelExecutor, DeepTemporalWithThreads) {
  ThreadPool Pool(4);
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{12, 12, 12};
  Grid UPlain = randomGrid(Dims, 1);
  Grid USched(Dims, 1);
  USched.copyInteriorFrom(UPlain);
  Grid S1(Dims, 1), S2(Dims, 1);

  KernelExecutor ExecPlain(S, KernelConfig());
  ExecPlain.runTimeSteps(UPlain, S1, 6);

  KernelConfig C;
  C.Sched = Schedule::DeepTemporal;
  C.WavefrontDepth = 3;
  C.Block.Y = 4;
  C.Threads = 4;
  KernelExecutor ExecSched(S, C);
  ExecSched.runTimeSteps(USched, S2, 6, &Pool);

  EXPECT_EQ(Grid::maxAbsDiffInterior(UPlain, USched), 0.0);
}

TEST(KernelExecutor, ScheduleNonzeroBoundary) {
  // Constant-in-time Dirichlet boundary must be honored by both new
  // schedules (both buffers carry the halo).
  for (Schedule Sched : {Schedule::Diamond, Schedule::DeepTemporal}) {
    StencilSpec S = StencilSpec::star3d(1, 0.25, 0.125);
    GridDims Dims{8, 8, 12};
    Grid UPlain(Dims, 1);
    Rng R(9);
    UPlain.fillRandom(R);
    UPlain.fillHalo(1.5);
    Grid USched(Dims, 1);
    USched.copyInteriorFrom(UPlain);
    USched.fillHalo(1.5);
    Grid S1(Dims, 1), S2(Dims, 1);
    S1.fillHalo(1.5);
    S2.fillHalo(1.5);

    KernelExecutor ExecPlain(S, KernelConfig());
    ExecPlain.runTimeSteps(UPlain, S1, 4);

    KernelConfig C;
    C.Sched = Sched;
    C.WavefrontDepth = 2;
    C.Block.Z = 4;
    KernelExecutor ExecSched(S, C);
    ExecSched.runTimeSteps(USched, S2, 4);

    EXPECT_EQ(Grid::maxAbsDiffInterior(UPlain, USched), 0.0)
        << scheduleName(Sched);
  }
}

TEST(KernelExecutor, InvalidDepthRejectedByValidation) {
  // The executor no longer clamps an invalid wavefront depth; every entry
  // point must reject it via KernelConfig::validate() before construction.
  for (int Depth : {0, -1, -7}) {
    KernelConfig C;
    C.WavefrontDepth = Depth;
    EXPECT_FALSE(C.validate().empty()) << "wf=" << Depth;
  }
  KernelConfig SweepFused;
  SweepFused.Sched = Schedule::Sweep;
  SweepFused.WavefrontDepth = 2;
  EXPECT_FALSE(SweepFused.validate().empty());
  KernelConfig SweepPlain;
  SweepPlain.Sched = Schedule::Sweep;
  EXPECT_TRUE(SweepPlain.validate().empty());
}

TEST(KernelExecutor, WavefrontNonzeroBoundary) {
  // Constant-in-time Dirichlet boundary must be honored by the wavefront
  // path (both buffers carry the halo).
  StencilSpec S = StencilSpec::star3d(1, 0.25, 0.125);
  GridDims Dims{8, 8, 12};
  Grid UPlain(Dims, 1);
  Rng R(9);
  UPlain.fillRandom(R);
  UPlain.fillHalo(1.5);
  Grid UWave(Dims, 1);
  UWave.copyInteriorFrom(UPlain);
  UWave.fillHalo(1.5);
  Grid S1(Dims, 1), S2(Dims, 1);
  S1.fillHalo(1.5);
  S2.fillHalo(1.5);

  KernelExecutor ExecPlain(S, KernelConfig());
  ExecPlain.runTimeSteps(UPlain, S1, 4);

  KernelConfig Wave;
  Wave.WavefrontDepth = 2;
  Wave.Block.Z = 4;
  KernelExecutor ExecWave(S, Wave);
  ExecWave.runTimeSteps(UWave, S2, 4);

  EXPECT_EQ(Grid::maxAbsDiffInterior(UPlain, UWave), 0.0);
}
