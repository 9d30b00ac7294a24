//===- tests/DomainDecompositionTest.cpp - rank decomposition tests ----------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/DomainDecomposition.h"

#include <gtest/gtest.h>

using namespace ys;

namespace {

Grid randomGlobal(GridDims Dims, int Halo, uint64_t Seed = 7) {
  Grid G(Dims, Halo);
  Rng R(Seed);
  G.fillRandom(R);
  return G;
}

/// Planes one exchange refreshes, from the public geometry: every
/// exchanged (non-clipped) side pulls exactly Halo planes.
unsigned long long exchangedPlanes(const DecomposedGrid &D) {
  unsigned long long Planes = 0;
  for (unsigned R = 0; R < D.numRanks(); ++R) {
    if (D.sideExchanged(R, /*Low=*/true))
      Planes += static_cast<unsigned long long>(D.halo());
    if (D.sideExchanged(R, /*Low=*/false))
      Planes += static_cast<unsigned long long>(D.halo());
  }
  return Planes;
}

} // namespace

TEST(DecomposedGrid, SlabPartitionCoversDomain) {
  DecomposedGrid D({8, 8, 13}, 4, 1);
  ASSERT_EQ(D.numRanks(), 4u);
  EXPECT_EQ(D.rankZBegin(0), 0);
  long Total = 0;
  for (unsigned R = 0; R < 4; ++R) {
    long Own = D.rankZBegin(R + 1) - D.rankZBegin(R);
    // Local interior = owned planes + deep-halo extensions.
    EXPECT_EQ(D.rank(R).dims().Nz, Own + D.rankExtLo(R) + D.rankExtHi(R));
    Total += Own;
    if (R > 0) {
      EXPECT_EQ(D.rankZBegin(R), D.rankZEnd(R - 1));
    }
  }
  EXPECT_EQ(Total, 13);
  EXPECT_EQ(D.rankZEnd(3), 13);
  // Outermost sides touch the physical boundary: no extension there.
  EXPECT_EQ(D.rankExtLo(0), 0);
  EXPECT_EQ(D.rankExtHi(3), 0);
  EXPECT_FALSE(D.sideExchanged(0, true));
  EXPECT_TRUE(D.sideExchanged(1, true));
}

TEST(DecomposedGrid, BalancedSplitHasNoEmptyRanks) {
  // The seeded bug: ceil-divide gave Nz=10, Ranks=8 slabs of 2 planes
  // until the domain ran out, leaving three empty ranks.  The balanced
  // split must give every rank at least one plane, extents differing by
  // at most one.
  DecomposedGrid D({4, 4, 10}, 8, 1);
  long MinOwn = 10, MaxOwn = 0;
  for (unsigned R = 0; R < 8; ++R) {
    long Own = D.rankZEnd(R) - D.rankZBegin(R);
    MinOwn = std::min(MinOwn, Own);
    MaxOwn = std::max(MaxOwn, Own);
  }
  EXPECT_EQ(MinOwn, 1);
  EXPECT_EQ(MaxOwn, 2);
  EXPECT_EQ(D.rankZEnd(7), 10);
}

TEST(DecomposedGrid, ValidateParamsRejectsBadShapes) {
  EXPECT_EQ(DecomposedGrid::validateParams({8, 8, 8}, 4, 1), "");
  EXPECT_NE(DecomposedGrid::validateParams({8, 8, 8}, 0, 1), "");
  EXPECT_NE(DecomposedGrid::validateParams({8, 8, 8}, 4, 0), "");
  // More ranks than planes: the case the old assert let through in
  // release builds.
  EXPECT_NE(DecomposedGrid::validateParams({8, 8, 3}, 4, 1), "");
}

TEST(DecomposedGrid, ScatterGatherRoundTrip) {
  GridDims Dims{10, 9, 11};
  Grid Global = randomGlobal(Dims, 1);
  DecomposedGrid D(Dims, 3, 1);
  D.scatter(Global);
  Grid Back(Dims, 1);
  D.gather(Back);
  EXPECT_EQ(Grid::maxAbsDiffInterior(Global, Back), 0.0);
}

TEST(DecomposedGrid, ScatterGatherRoundTripDeepHaloUneven) {
  // Halo deeper than the global grid's own halo, Nz not divisible by
  // Ranks: scatter zero-fills the unreachable halo cells and gather
  // reads owned planes only.
  GridDims Dims{7, 6, 11};
  Grid Global = randomGlobal(Dims, 1);
  DecomposedGrid D(Dims, 4, 3);
  D.scatter(Global);
  Grid Back(Dims, 1);
  D.gather(Back);
  EXPECT_EQ(Grid::maxAbsDiffInterior(Global, Back), 0.0);
}

TEST(DecomposedGrid, ScatterFillsExtensionsAndHalos) {
  GridDims Dims{6, 6, 9};
  Grid Global = randomGlobal(Dims, 1);
  DecomposedGrid D(Dims, 3, 1);
  D.scatter(Global);
  // Rank 1 owns [3, 6) with one extension plane on each side: its local
  // plane 0 is global plane 2, and its bottom *halo* plane is global 1.
  ASSERT_EQ(D.rankZBegin(1), 3);
  ASSERT_EQ(D.rankExtLo(1), 1);
  EXPECT_EQ(D.rank(1).at(2, 3, 0), Global.at(2, 3, 2));
  EXPECT_EQ(D.rank(1).at(2, 3, -1), Global.at(2, 3, 1));
  // Rank 0's bottom halo is the global physical boundary.
  EXPECT_EQ(D.rank(0).at(2, 3, -1), Global.at(2, 3, -1));
}

TEST(DecomposedGrid, ExchangeRefreshesStaleExtensions) {
  GridDims Dims{6, 6, 8};
  Grid Global = randomGlobal(Dims, 1);
  DecomposedGrid D(Dims, 2, 1);
  D.scatter(Global);
  // Perturb rank 0's top *owned* plane (global plane 3), then exchange:
  // rank 1's low extension plane (local z == 0) must see the new value.
  long TopOwned = D.rankExtLo(0) + (D.rankZEnd(0) - D.rankZBegin(0)) - 1;
  D.rank(0).at(3, 3, TopOwned) = 123.0;
  D.exchangeHalos();
  EXPECT_EQ(D.rank(1).at(3, 3, 0), 123.0);
  EXPECT_GT(D.haloBytesExchanged(), 0ull);
}

TEST(DecomposedGrid, StagedExchangeMatchesSerialExchange) {
  // pack + unpack must land exactly the values the element-wise serial
  // path lands, for the contiguous-plane fast path (scalar and z-major
  // folds) and the element-wise fold fallback alike.
  GridDims Dims{9, 7, 12};
  for (Fold F : {Fold{1, 1, 1}, Fold{2, 2, 1}, Fold{1, 2, 2}}) {
    Grid Global(Dims, 2);
    Rng R(11);
    Global.fillRandom(R);
    DecomposedGrid Serial(Dims, 3, 2, F), Staged(Dims, 3, 2, F);
    Serial.scatter(Global);
    Staged.scatter(Global);
    // Make the slabs diverge from the scatter state so the exchange has
    // real work to do.
    for (unsigned Rk = 0; Rk < 3; ++Rk) {
      Rng RR(100 + Rk);
      Serial.rank(Rk).fillRandom(RR);
      Rng RS(100 + Rk);
      Staged.rank(Rk).fillRandom(RS);
    }
    Serial.exchangeHalos();
    Staged.packHalos();
    for (size_t I = 0; I < Staged.numCopyRuns(); ++I)
      Staged.unpackRun(I);
    for (unsigned Rk = 0; Rk < 3; ++Rk)
      EXPECT_EQ(Grid::maxAbsDiffInterior(Serial.rank(Rk), Staged.rank(Rk)),
                0.0)
          << "rank " << Rk << " fold " << F.str();
  }
}

TEST(DecomposedGrid, HaloByteAccountingPinned) {
  // The counter must equal what the copy loops actually move.  Serial
  // path: element-wise planes spanning the (Nx+2H)*(Ny+2H) halo ring —
  // the old counter assumed Nx*Ny and undercounted.  Staged path: whole
  // padded planes, moved twice (grid -> staging -> grid).
  GridDims Dims{8, 6, 12};
  int Halo = 2;
  DecomposedGrid D(Dims, 3, Halo);
  unsigned long long Planes = exchangedPlanes(D);
  ASSERT_EQ(Planes, 4ull * Halo); // 2 interior sides x 2 ranks each.

  D.exchangeHalos();
  unsigned long long SerialBytes =
      Planes * (Dims.Nx + 2 * Halo) * (Dims.Ny + 2 * Halo) * sizeof(double);
  EXPECT_EQ(D.haloBytesExchanged(), SerialBytes);

  D.packHalos();
  for (size_t I = 0; I < D.numCopyRuns(); ++I)
    D.unpackRun(I);
  unsigned long long StagedBytes =
      2 * Planes * static_cast<unsigned long long>(D.rank(0).padX()) *
      D.rank(0).padY() * sizeof(double);
  EXPECT_EQ(D.haloBytesExchanged(), SerialBytes + StagedBytes);
}

TEST(DistributedStepper, MatchesMonolithicTimeStepping) {
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{12, 10, 17};
  Grid Global = randomGlobal(Dims, 1);

  // Monolithic reference.
  Grid URef(Dims, 1);
  URef.copyInteriorFrom(Global);
  Grid Scratch(Dims, 1);
  KernelExecutor Exec(S, KernelConfig());
  Exec.runTimeSteps(URef, Scratch, 5);

  for (unsigned Ranks : {1u, 3u, 5u}) {
    for (ExchangeMode Mode :
         {ExchangeMode::Serial, ExchangeMode::Overlapped}) {
      DecomposedGrid U(Dims, Ranks, 1), V(Dims, Ranks, 1);
      U.scatter(Global);
      Grid Zero(Dims, 1);
      V.scatter(Zero);
      DistributedStepper Stepper(S, KernelConfig());
      Stepper.setExchangeMode(Mode);
      Stepper.runTimeSteps(U, V, 5);
      Grid Result(Dims, 1);
      U.gather(Result);
      EXPECT_EQ(Grid::maxAbsDiffInterior(URef, Result), 0.0)
          << Ranks << " ranks, mode "
          << (Mode == ExchangeMode::Serial ? "serial" : "overlapped");
    }
  }
}

TEST(DistributedStepper, MatchesWithWideStencilAndRankParallel) {
  StencilSpec S = StencilSpec::star3d(2);
  GridDims Dims{10, 10, 16};
  Grid Global = randomGlobal(Dims, 2, 21);

  Grid URef(Dims, 2);
  URef.copyInteriorFrom(Global);
  Grid Scratch(Dims, 2);
  KernelExecutor Exec(S, KernelConfig());
  Exec.runTimeSteps(URef, Scratch, 4);

  ThreadPool Pool(3);
  for (ExchangeMode Mode :
       {ExchangeMode::Serial, ExchangeMode::Overlapped}) {
    DecomposedGrid U(Dims, 4, 2), V(Dims, 4, 2);
    U.scatter(Global);
    Grid Zero(Dims, 2);
    V.scatter(Zero);
    DistributedStepper Stepper(S, KernelConfig());
    Stepper.setExchangeMode(Mode);
    Stepper.runTimeSteps(U, V, 4, &Pool);
    Grid Result(Dims, 2);
    U.gather(Result);
    EXPECT_EQ(Grid::maxAbsDiffInterior(URef, Result), 0.0);
  }
}

TEST(DistributedStepper, OverlappedHandlesSlabsThinnerThanTwoRadii) {
  // Radius 2 over 5 planes in 3 ranks owns 2, 2 and 1 planes: fewer than
  // 2R between two exchanged sides, so a rank's level-1 boundary bands
  // would overlap and must wait for both sides' halos.  Deeper halos make
  // one extension span several owner ranks.
  StencilSpec S = StencilSpec::star3d(2);
  GridDims Dims{7, 6, 5};
  ThreadPool Pool(4);
  for (int Halo : {2, 4, 6})
    for (ThreadPool *P : {static_cast<ThreadPool *>(nullptr), &Pool}) {
      Grid Global = randomGlobal(Dims, Halo, 41 + Halo);
      Grid URef(Dims, Halo), Scratch(Dims, Halo);
      URef.copyInteriorFrom(Global);
      KernelExecutor Exec(S, KernelConfig());
      Exec.runTimeSteps(URef, Scratch, 5);

      DecomposedGrid U(Dims, 3, Halo), V(Dims, 3, Halo);
      U.scatter(Global);
      V.scatter(Grid(Dims, Halo));
      DistributedStepper Stepper(S, KernelConfig());
      Stepper.setExchangeMode(ExchangeMode::Overlapped);
      Stepper.runTimeSteps(U, V, 5, P);
      Grid Result(Dims, Halo);
      U.gather(Result);
      EXPECT_EQ(Grid::maxAbsDiffInterior(URef, Result), 0.0)
          << "halo " << Halo << (P ? " pooled" : " serial");
    }
}

TEST(DistributedStepper, DeepHaloAmortizesExchangesAndStaysExact) {
  // Halo = 3 * radius buys 3 fused steps per exchange: 7 steps cost
  // ceil(7/3) = 3 exchange rounds, and the result is still bit-identical
  // to the monolithic run.  Uneven split (17 planes over 3 ranks) and a
  // halo deeper than the stencil radius, per the satellite checklist.
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{10, 8, 17};
  Grid Global = randomGlobal(Dims, 1, 33);

  Grid URef(Dims, 1);
  URef.copyInteriorFrom(Global);
  Grid Scratch(Dims, 1);
  KernelExecutor Exec(S, KernelConfig());
  Exec.runTimeSteps(URef, Scratch, 7);

  for (ExchangeMode Mode :
       {ExchangeMode::Serial, ExchangeMode::Overlapped}) {
    DecomposedGrid U(Dims, 3, 3), V(Dims, 3, 3);
    U.scatter(Global);
    Grid Zero(Dims, 1);
    V.scatter(Zero);
    DistributedStepper Stepper(S, KernelConfig());
    Stepper.setExchangeMode(Mode);
    EXPECT_EQ(Stepper.stepsPerExchange(3), 3);
    Stepper.runTimeSteps(U, V, 7);
    EXPECT_EQ(Stepper.exchangeRounds(), 3ull);
    Grid Result(Dims, 1);
    U.gather(Result);
    EXPECT_EQ(Grid::maxAbsDiffInterior(URef, Result), 0.0);
  }
}

TEST(DistributedStepper, OverlappedMatchesSerialAcrossSchedules) {
  // Overlapped stepping must be bit-identical to the serial baseline and
  // to the monolithic executor for every temporal schedule, with deep
  // halos sized to the fusion depth (one exchange per macro step).
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{11, 9, 19};
  Grid Global = randomGlobal(Dims, 1, 5);
  ThreadPool Pool(4);
  int Steps = 6;

  for (Schedule Sched : {Schedule::Sweep, Schedule::Wavefront,
                         Schedule::Diamond, Schedule::DeepTemporal}) {
    KernelConfig Cfg;
    if (Sched != Schedule::Sweep) {
      Cfg.Sched = Sched;
      Cfg.WavefrontDepth = 2;
      if (Sched != Schedule::DeepTemporal)
        Cfg.Block.Z = 4;
    }
    ASSERT_EQ(Cfg.validate(), "");

    Grid URef(Dims, 1);
    URef.copyInteriorFrom(Global);
    Grid Scratch(Dims, 1);
    KernelExecutor Exec(S, Cfg);
    Exec.runTimeSteps(URef, Scratch, Steps);

    int Halo = 2; // depth * radius: one exchange per macro step.
    for (ExchangeMode Mode :
         {ExchangeMode::Serial, ExchangeMode::Overlapped}) {
      DecomposedGrid U(Dims, 3, Halo), V(Dims, 3, Halo);
      U.scatter(Global);
      Grid Zero(Dims, 1);
      V.scatter(Zero);
      DistributedStepper Stepper(S, Cfg);
      Stepper.setExchangeMode(Mode);
      Stepper.runTimeSteps(U, V, Steps, &Pool);
      EXPECT_EQ(Stepper.exchangeRounds(),
                static_cast<unsigned long long>(Steps / 2));
      Grid Result(Dims, 1);
      U.gather(Result);
      EXPECT_EQ(Grid::maxAbsDiffInterior(URef, Result), 0.0)
          << scheduleName(Sched) << " mode "
          << (Mode == ExchangeMode::Serial ? "serial" : "overlapped");
    }
  }
}

TEST(DistributedStepper, FoldedLayoutMatchesMonolithic) {
  // Folded storage exercises the staged exchange's fast path (fold.Z==1,
  // contiguous planes) and the element-wise fallback (fold.Z > 1).
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{12, 8, 14};
  Grid Global = randomGlobal(Dims, 1, 9);
  for (Fold F : {Fold{4, 1, 1}, Fold{1, 2, 2}}) {
    KernelConfig Cfg;
    Cfg.VectorFold = F;

    Grid URef(Dims, 1, F);
    URef.copyInteriorFrom(Global);
    Grid Scratch(Dims, 1, F);
    KernelExecutor Exec(S, Cfg);
    Exec.runTimeSteps(URef, Scratch, 3);

    DecomposedGrid U(Dims, 3, 2, F), V(Dims, 3, 2, F);
    U.scatter(Global);
    Grid Zero(Dims, 1, F);
    V.scatter(Zero);
    DistributedStepper Stepper(S, Cfg);
    Stepper.runTimeSteps(U, V, 3);
    Grid Result(Dims, 1, F);
    U.gather(Result);
    EXPECT_EQ(Grid::maxAbsDiffInterior(URef, Result), 0.0)
        << "fold " << F.str();
  }
}

TEST(DistributedStepper, HaloTrafficScalesWithRanksAndSteps) {
  StencilSpec S = StencilSpec::heat3d();
  GridDims Dims{8, 8, 12};
  Grid Global = randomGlobal(Dims, 1);
  DecomposedGrid U2(Dims, 2, 1), V2(Dims, 2, 1);
  DecomposedGrid U4(Dims, 4, 1), V4(Dims, 4, 1);
  U2.scatter(Global);
  U4.scatter(Global);
  DistributedStepper Stepper(S, KernelConfig());
  Stepper.setExchangeMode(ExchangeMode::Serial);
  Stepper.runTimeSteps(U2, V2, 3);
  Stepper.runTimeSteps(U4, V4, 3);
  // 4 ranks refresh 6 extension sides vs 2: 3x the halo traffic.  Only
  // the source decomposition exchanges (one exchange per macro step).
  EXPECT_EQ(U4.haloBytesExchanged(), 3 * U2.haloBytesExchanged());
  EXPECT_EQ(V2.haloBytesExchanged(), 0ull);
}
