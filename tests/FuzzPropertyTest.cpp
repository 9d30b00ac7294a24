//===- tests/FuzzPropertyTest.cpp - randomized property tests ----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Randomized sweeps over generated stencils / configurations / inputs,
/// asserting the library's core invariants rather than specific values:
/// executor paths equal the reference, the cache simulator's counters are
/// self-consistent, the ECM model respects its structural monotonicities,
/// and the DSL front end never crashes on mutated inputs.
///
//===----------------------------------------------------------------------===//

#include "cachesim/StencilTrace.h"
#include "codegen/DomainDecomposition.h"
#include "codegen/KernelExecutor.h"
#include "ecm/ECMModel.h"
#include "frontend/Parser.h"
#include "support/Random.h"
#include "verify/GridPatterns.h"
#include "verify/ReferenceInterpreter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

using namespace ys;

namespace {

/// Generates a random valid single-grid stencil with radius <= 3.
StencilSpec randomSpec(Rng &R) {
  int Radius = 1 + static_cast<int>(R.nextBounded(3));
  unsigned NumPoints = 3 + static_cast<unsigned>(R.nextBounded(12));
  std::set<std::tuple<int, int, int>> Seen;
  std::vector<StencilPoint> Points;
  Seen.insert({0, 0, 0});
  Points.push_back({0, 0, 0, R.nextDouble(-2.0, 2.0), 0});
  while (Points.size() < NumPoints) {
    int Dx = static_cast<int>(R.nextBounded(2 * Radius + 1)) - Radius;
    int Dy = static_cast<int>(R.nextBounded(2 * Radius + 1)) - Radius;
    int Dz = static_cast<int>(R.nextBounded(2 * Radius + 1)) - Radius;
    if (!Seen.insert({Dx, Dy, Dz}).second)
      continue;
    Points.push_back({Dx, Dy, Dz, R.nextDouble(-1.0, 1.0), 0});
  }
  return StencilSpec("fuzz", std::move(Points));
}

/// Generates a random kernel configuration (scalar or folded layout).
KernelConfig randomConfig(Rng &R) {
  KernelConfig C;
  long Blocks[] = {0, 2, 3, 5, 8, 16};
  C.Block.X = Blocks[R.nextBounded(6)];
  C.Block.Y = Blocks[R.nextBounded(6)];
  C.Block.Z = Blocks[R.nextBounded(6)];
  if (R.nextBounded(2) == 0) {
    Fold Folds[] = {{1, 1, 1}, {4, 1, 1}, {2, 2, 1}, {1, 2, 2}};
    C.VectorFold = Folds[R.nextBounded(4)];
  }
  // ~1 in 3 configs are temporal, spread over all three temporal
  // schedules and a few fusion depths.  Paths that ignore the schedule
  // (single sweeps, trace replays without runTemporal) must keep working
  // when these fields are set.
  if (R.nextBounded(3) == 0) {
    Schedule Scheds[] = {Schedule::Wavefront, Schedule::Diamond,
                         Schedule::DeepTemporal};
    C.Sched = Scheds[R.nextBounded(3)];
    C.WavefrontDepth = 2 + static_cast<int>(R.nextBounded(3));
  }
  return C;
}

} // namespace

class FuzzSeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeed, ExecutorMatchesReference) {
  Rng R(GetParam());
  StencilSpec Spec = randomSpec(R);
  ASSERT_EQ(Spec.validate(), "");
  KernelConfig Config = randomConfig(R);
  GridDims Dims{static_cast<long>(8 + R.nextBounded(12)),
                static_cast<long>(8 + R.nextBounded(10)),
                static_cast<long>(8 + R.nextBounded(8))};

  int Halo = Spec.radius();
  Grid In(Dims, Halo, Config.VectorFold);
  const uint64_t FillSeed = GetParam() ^ 0xabcdef;
  fillPattern(In, GridPattern::Random, FillSeed);
  Grid OutRef(Dims, Halo, Config.VectorFold);
  Grid OutCfg(Dims, Halo, Config.VectorFold);
  ReferenceInterpreter(Spec).runSweep({&In}, OutRef);
  KernelExecutor Exec(Spec, Config);
  Exec.runSweep({&In}, OutCfg);
  EXPECT_EQ(Grid::maxAbsDiffInterior(OutRef, OutCfg), 0.0)
      << "config " << Config.str() << " pattern=random seed=" << FillSeed
      << " (test seed " << GetParam() << ")";
}

TEST_P(FuzzSeed, TemporalSchedulesMatchPlainStepping) {
  Rng R(GetParam());
  // Every temporal schedule must reproduce plain stepping bit for bit on
  // random specs, step counts, depths, and z blockings.
  StencilSpec Spec = randomSpec(R);
  GridDims Dims{10, 9, static_cast<long>(8 + R.nextBounded(10))};
  int Steps = 2 + static_cast<int>(R.nextBounded(5));
  int Depth = 2 + static_cast<int>(R.nextBounded(3));

  int Halo = Spec.radius();
  Grid U0(Dims, Halo);
  const uint64_t FillSeed = GetParam() * 31 + 7;
  fillPattern(U0, GridPattern::Random, FillSeed);

  Grid UPlain(Dims, Halo);
  UPlain.copyInteriorFrom(U0);
  Grid S1(Dims, Halo), S2(Dims, Halo);
  KernelExecutor Plain(Spec, KernelConfig());
  Plain.runTimeSteps(UPlain, S1, Steps);

  for (Schedule Sched : {Schedule::Wavefront, Schedule::Diamond,
                         Schedule::DeepTemporal}) {
    KernelConfig Cfg;
    Cfg.Sched = Sched;
    Cfg.WavefrontDepth = Depth;
    if (Sched != Schedule::DeepTemporal)
      Cfg.Block.Z = 1 + static_cast<long>(R.nextBounded(6));
    ASSERT_EQ(Cfg.validate(), "");

    Grid UT(Dims, Halo);
    UT.copyInteriorFrom(U0);
    KernelExecutor Exec(Spec, Cfg);
    Exec.runTimeSteps(UT, S2, Steps);
    EXPECT_EQ(Grid::maxAbsDiffInterior(UPlain, UT), 0.0)
        << "sched=" << scheduleName(Sched) << " steps=" << Steps
        << " depth=" << Depth << " pattern=random seed=" << FillSeed
        << " (test seed " << GetParam() << ")";
  }
}

TEST_P(FuzzSeed, TemporalTraceMatchesExecutorLupCount) {
  Rng R(GetParam());
  // The trace replay of a temporal schedule must account exactly
  // Depth * Nx*Ny*Nz lattice updates per macro step and report nonzero
  // traffic at every cache boundary it models.
  StencilSpec Spec = randomSpec(R);
  KernelConfig Cfg;
  Schedule Scheds[] = {Schedule::Wavefront, Schedule::Diamond,
                       Schedule::DeepTemporal};
  Cfg.Sched = Scheds[R.nextBounded(3)];
  Cfg.WavefrontDepth = 2 + static_cast<int>(R.nextBounded(3));
  if (Cfg.Sched != Schedule::DeepTemporal)
    Cfg.Block.Z = 1 + static_cast<long>(R.nextBounded(6));
  ASSERT_EQ(Cfg.validate(), "");
  GridDims Dims{static_cast<long>(16 + R.nextBounded(8)),
                static_cast<long>(12 + R.nextBounded(6)),
                static_cast<long>(10 + R.nextBounded(8))};

  CacheHierarchySim Sim({{"L1", 8 * 1024, 8, 64},
                         {"L2", 64 * 1024, 8, 64}});
  StencilTraceRunner Runner(Spec, Dims, Cfg);
  TraceTraffic T = Runner.runTemporal(Sim);
  EXPECT_EQ(T.Lups, static_cast<unsigned long long>(Cfg.WavefrontDepth) *
                        Dims.Nx * Dims.Ny * Dims.Nz)
      << "sched=" << scheduleName(Cfg.Sched) << " (test seed "
      << GetParam() << ")";
  for (double B : T.BytesPerLup)
    EXPECT_GT(B, 0.0) << scheduleName(Cfg.Sched);
}

TEST_P(FuzzSeed, DistributedMatchesMonolithic) {
  Rng R(GetParam());
  // A rank-decomposed run with deep halos must be bit-identical to the
  // monolithic sweep on the owned planes — for random rank counts, halo
  // depths (k * radius), schedules, folds, and both exchange paths — and
  // one exchange must amortize k = Halo/radius fused sweeps.
  StencilSpec Spec = randomSpec(R);
  GridDims Dims{static_cast<long>(8 + R.nextBounded(8)),
                static_cast<long>(8 + R.nextBounded(6)),
                static_cast<long>(10 + R.nextBounded(10))};
  unsigned Ranks = 2 + static_cast<unsigned>(R.nextBounded(3));
  int Steps = 2 + static_cast<int>(R.nextBounded(4));
  int Radius = Spec.radius();

  KernelConfig Cfg;
  Schedule Scheds[] = {Schedule::Wavefront, Schedule::Wavefront,
                      Schedule::Diamond, Schedule::DeepTemporal};
  int Pick = static_cast<int>(R.nextBounded(4));
  if (Pick > 0)
    Cfg.Sched = Scheds[Pick];
  if (R.nextBounded(2) == 0) {
    Fold Folds[] = {{1, 1, 1}, {4, 1, 1}, {2, 2, 1}, {1, 2, 2}};
    Cfg.VectorFold = Folds[R.nextBounded(4)];
  }
  int Halo;
  if (Cfg.isTemporal()) {
    // Temporal schedules step distributed with Halo = depth * radius.
    Cfg.WavefrontDepth = 2 + static_cast<int>(R.nextBounded(2));
    if (Cfg.Sched != Schedule::DeepTemporal)
      Cfg.Block.Z = 1 + static_cast<long>(R.nextBounded(4));
    Halo = Radius * Cfg.WavefrontDepth;
  } else {
    // Plain sweeps take any halo depth: k sweeps per exchange.
    Halo = Radius * (1 + static_cast<int>(R.nextBounded(3)));
  }
  ASSERT_EQ(Cfg.validate(), "");
  ASSERT_EQ(DecomposedGrid::validateParams(Dims, Ranks, Halo), "");

  std::string Ctx = "seed=" + std::to_string(GetParam()) + " dims=" +
                    Dims.str() + " ranks=" + std::to_string(Ranks) +
                    " halo=" + std::to_string(Halo) + " steps=" +
                    std::to_string(Steps) + " config=" + Cfg.str();

  Grid Init(Dims, Radius);
  const uint64_t FillSeed = GetParam() * 131 + 17;
  fillPattern(Init, GridPattern::Random, FillSeed);

  Grid URef(Dims, Radius), SRef(Dims, Radius);
  URef.copyInteriorFrom(Init);
  KernelExecutor Mono(Spec, Cfg);
  Mono.runTimeSteps(URef, SRef, Steps);

  ThreadPool Pool(3);
  for (ExchangeMode Mode :
       {ExchangeMode::Serial, ExchangeMode::Overlapped}) {
    DecomposedGrid U(Dims, Ranks, Halo, Cfg.VectorFold);
    DecomposedGrid V(Dims, Ranks, Halo, Cfg.VectorFold);
    U.scatter(Init);
    V.scatter(Init);
    DistributedStepper Stepper(Spec, Cfg);
    Stepper.setExchangeMode(Mode);
    Stepper.runTimeSteps(U, V, Steps, &Pool);
    Grid Out(Dims, Radius);
    U.gather(Out);
    const char *ModeName =
        Mode == ExchangeMode::Serial ? "serial" : "overlapped";
    EXPECT_EQ(Grid::maxAbsDiffInterior(URef, Out), 0.0)
        << Ctx << " mode=" << ModeName;
    int K = Stepper.stepsPerExchange(Halo);
    EXPECT_EQ(Stepper.exchangeRounds(),
              static_cast<unsigned long long>((Steps + K - 1) / K))
        << Ctx << " mode=" << ModeName;
    EXPECT_GT(U.haloBytesExchanged(), 0ull) << Ctx << " mode=" << ModeName;
  }
}

TEST_P(FuzzSeed, CacheSimCountersSelfConsistent) {
  Rng R(GetParam());
  CacheHierarchySim Sim({{"L1", 4 * 1024, 4, 64},
                         {"L2", 32 * 1024, 8, 64}});
  unsigned long long Accesses = 2000 + R.nextBounded(3000);
  for (unsigned long long I = 0; I < Accesses; ++I) {
    uint64_t Addr = R.nextBounded(256 * 1024);
    bool Write = R.nextBounded(3) == 0;
    Sim.access(Addr, 8, Write);
  }
  for (unsigned L = 0; L < Sim.numLevels(); ++L) {
    const CacheLevelStats &S = Sim.level(L).stats();
    EXPECT_EQ(S.Hits + S.Misses, S.Accesses);
    EXPECT_EQ(S.FillLines, S.Misses); // Every miss fills inclusively.
  }
  // Outer level only sees inner misses.
  EXPECT_EQ(Sim.level(1).stats().Accesses, Sim.level(0).stats().Misses);
  HierarchyTraffic T = Sim.traffic();
  for (unsigned long long B : T.BoundaryBytes)
    EXPECT_EQ(B % 64, 0ull);
}

TEST_P(FuzzSeed, EcmStructuralInvariants) {
  Rng R(GetParam());
  StencilSpec Spec = randomSpec(R);
  MachineModel M = MachineModel::cascadeLakeSP();
  ECMModel Model(M);
  GridDims Dims{256, 256, 128};
  KernelConfig Config = randomConfig(R);
  ECMPrediction P = Model.predict(Spec, Dims, Config);

  EXPECT_GE(P.TECM, P.InCore.TOL);
  EXPECT_GE(P.TECM, P.InCore.TnOL);
  for (size_t I = 1; I < P.Traffic.BytesPerLup.size(); ++I)
    EXPECT_LE(P.Traffic.BytesPerLup[I], P.Traffic.BytesPerLup[I - 1]);
  EXPECT_GE(P.SaturationCores, 1u);
  EXPECT_LE(P.SaturationCores, M.CoresPerSocket);
  EXPECT_GT(P.MLupsSingleCore, 0.0);
  EXPECT_LE(P.mlupsAtCores(1), P.mlupsAtCores(M.CoresPerSocket) + 1e-9);

  // More memory bandwidth can never predict slower.
  MachineModel M2 = M;
  M2.Memory.BandwidthGBs *= 2.0;
  ECMModel Faster(M2);
  EXPECT_GE(Faster.predict(Spec, Dims, Config).MLupsSaturated + 1e-9,
            P.MLupsSaturated);

  // Larger caches can never predict more traffic.
  MachineModel M3 = M;
  for (CacheLevelModel &L : M3.Caches)
    L.SizeBytes *= 4;
  ECMModel Bigger(M3);
  ECMPrediction P3 = Bigger.predict(Spec, Dims, Config);
  for (size_t I = 0; I < P.Traffic.BytesPerLup.size(); ++I)
    EXPECT_LE(P3.Traffic.BytesPerLup[I],
              P.Traffic.BytesPerLup[I] + 1e-9);
}

TEST_P(FuzzSeed, ParserNeverCrashesOnMutatedInput) {
  const std::string Valid =
      "stencil s { grid u, v; param a = 0.5;\n"
      "  v[x,y,z] = a * (u[x+1,y,z] + u[x-1,y,z]) - u[x,y,z]; }";
  Rng R(GetParam());
  for (int Round = 0; Round < 50; ++Round) {
    std::string Mutated = Valid;
    unsigned Edits = 1 + R.nextBounded(4);
    for (unsigned E = 0; E < Edits; ++E) {
      size_t Pos = R.nextBounded(Mutated.size());
      switch (R.nextBounded(3)) {
      case 0:
        Mutated.erase(Pos, 1);
        break;
      case 1:
        Mutated.insert(Pos, 1, "{}[]();=+-*,xyz123 "[R.nextBounded(19)]);
        break;
      default:
        Mutated[Pos] = "{}[]();=+-*,abz019 "[R.nextBounded(19)];
        break;
      }
    }
    // Must terminate and either succeed or produce a diagnostic; the
    // point is exercising the error paths without crashing.
    auto Result = Parser::parse(Mutated);
    if (!Result) {
      EXPECT_FALSE(Result.takeError().message().empty());
    }
  }
}

TEST_P(FuzzSeed, TraceTrafficBoundedByWorstCase) {
  Rng R(GetParam());
  StencilSpec Spec = randomSpec(R);
  GridDims Dims{24, 20, 12};
  CacheHierarchySim Sim({{"L1", 8 * 1024, 8, 64},
                         {"L2", 64 * 1024, 8, 64}});
  StencilTraceRunner Runner(Spec, Dims, KernelConfig());
  TraceTraffic T = Runner.run(Sim, 1);
  // Worst case: every point access misses (points * 8B) plus the output
  // (load + store), plus cold halo.
  double WorstCase = (Spec.numPoints() + 2.0) * 8.0 * 2.0;
  for (double B : T.BytesPerLup)
    EXPECT_LE(B, WorstCase);
  EXPECT_GT(T.BytesPerLup.back(), 0.0);
}

TEST_P(FuzzSeed, SampledTrafficMatchesFullOrFallsBackExactly) {
  // The sampled fast mode's contract over random (stencil, dims, config)
  // tuples: either it samples and the memory-boundary traffic lands
  // within 10% of the exact replay, or it declines with an explicit
  // reason and reproduces the exact replay bit for bit.
  Rng R(GetParam());
  StencilSpec Spec = randomSpec(R);
  KernelConfig Config = randomConfig(R);
  GridDims Dims{static_cast<long>(40 + 8 * R.nextBounded(5)),
                static_cast<long>(40 + 8 * R.nextBounded(5)),
                static_cast<long>(32 + 16 * R.nextBounded(5))};
  // Small hierarchy so random grids mostly stream (sampling engages) but
  // resident/gray cases still occur across seeds (fallback engages).
  auto makeSim = [] {
    return CacheHierarchySim({{"L1", 8 * 1024, 8, 64},
                              {"L2", 32 * 1024, 8, 64},
                              {"L3", 256 * 1024, 16, 64}});
  };
  CacheHierarchySim SimFull = makeSim(), SimSampled = makeSim();
  StencilTraceRunner Runner(Spec, Dims, Config);
  TraceTraffic Full = Runner.run(SimFull, 1);
  TraceTraffic Sampled = Runner.run(SimSampled, 1, SimMode::Sampled);

  std::string Ctx = "seed=" + std::to_string(GetParam()) + " dims=" +
                    Dims.str() + " config=" + Config.str();
  ASSERT_EQ(Sampled.BytesPerLup.size(), Full.BytesPerLup.size()) << Ctx;
  if (Sampled.Sampled) {
    EXPECT_TRUE(Sampled.FallbackReason.empty()) << Ctx;
    EXPECT_LT(Sampled.ReplayedLups, Full.Lups) << Ctx;
    double FullMem = Full.BytesPerLup.back();
    double SampledMem = Sampled.BytesPerLup.back();
    EXPECT_LE(std::abs(SampledMem - FullMem), 0.10 * FullMem)
        << Ctx << ": sampled mem " << SampledMem << " vs full " << FullMem;
  } else {
    EXPECT_FALSE(Sampled.FallbackReason.empty()) << Ctx;
    EXPECT_EQ(Sampled.ReplayedLups, Full.Lups) << Ctx;
    for (size_t I = 0; I < Full.BytesPerLup.size(); ++I)
      EXPECT_EQ(Sampled.BytesPerLup[I], Full.BytesPerLup[I])
          << Ctx << " boundary " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));
