//===- tests/GridTest.cpp - grid storage tests -----------------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "stencil/Grid.h"
#include "codegen/KernelExecutor.h"
#include "support/ThreadPool.h"
#include "verify/ReferenceInterpreter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

using namespace ys;

TEST(Grid, DimsAndPadding) {
  Grid G({10, 8, 6}, 2);
  EXPECT_EQ(G.padX(), 14);
  EXPECT_EQ(G.padY(), 12);
  EXPECT_EQ(G.padZ(), 10);
  EXPECT_EQ(G.allocElems(), 14u * 12 * 10);
  EXPECT_TRUE(G.hasScalarLayout());
}

TEST(Grid, FoldedPaddingRoundsUp) {
  Fold F;
  F.X = 4;
  F.Y = 2;
  F.Z = 1;
  Grid G({10, 7, 5}, 1, F);
  // 10+2=12 -> 12 (mult of 4); 7+2=9 -> 10 (mult of 2); 5+2=7 -> 7.
  EXPECT_EQ(G.padX(), 12);
  EXPECT_EQ(G.padY(), 10);
  EXPECT_EQ(G.padZ(), 7);
  EXPECT_FALSE(G.hasScalarLayout());
}

TEST(Grid, ScalarIndexInjective) {
  Grid G({5, 4, 3}, 1);
  std::set<size_t> Seen;
  for (long Z = -1; Z < 4; ++Z)
    for (long Y = -1; Y < 5; ++Y)
      for (long X = -1; X < 6; ++X)
        EXPECT_TRUE(Seen.insert(G.linearIndex(X, Y, Z)).second);
  EXPECT_EQ(Seen.size(), static_cast<size_t>(7 * 6 * 5));
}

TEST(Grid, ScalarNeighborOffsetMatchesIndexDelta) {
  Grid G({8, 8, 8}, 2);
  long Off = G.scalarNeighborOffset(1, -1, 2);
  size_t Base = G.linearIndex(3, 3, 3);
  EXPECT_EQ(static_cast<long>(G.linearIndex(4, 2, 5)) -
                static_cast<long>(Base),
            Off);
}

TEST(Grid, WriteReadRoundTrip) {
  Grid G({6, 5, 4}, 1);
  double V = 0;
  for (long Z = 0; Z < 4; ++Z)
    for (long Y = 0; Y < 5; ++Y)
      for (long X = 0; X < 6; ++X)
        G.at(X, Y, Z) = V++;
  V = 0;
  for (long Z = 0; Z < 4; ++Z)
    for (long Y = 0; Y < 5; ++Y)
      for (long X = 0; X < 6; ++X)
        EXPECT_EQ(G.at(X, Y, Z), V++);
}

TEST(Grid, FillAndSum) {
  Grid G({4, 4, 4}, 1);
  G.fill(2.0);
  EXPECT_DOUBLE_EQ(G.interiorSum(), 2.0 * 64);
}

TEST(Grid, FillFunctionSetsHaloZero) {
  Grid G({4, 4, 4}, 1);
  G.fill(9.0);
  G.fillFunction([](long X, long, long) { return X + 1.0; });
  EXPECT_EQ(G.at(-1, 0, 0), 0.0);
  EXPECT_EQ(G.at(4, 0, 0), 0.0);
  EXPECT_EQ(G.at(0, -1, 2), 0.0);
  EXPECT_EQ(G.at(2, 0, 0), 3.0);
}

TEST(Grid, FillHaloKeepsInterior) {
  Grid G({3, 3, 3}, 1);
  G.fill(1.0);
  G.fillHalo(7.0);
  EXPECT_EQ(G.at(1, 1, 1), 1.0);
  EXPECT_EQ(G.at(-1, 1, 1), 7.0);
  EXPECT_EQ(G.at(3, 3, 3), 7.0);
}

TEST(Grid, FillRandomDeterministicInRange) {
  Grid A({5, 5, 5}, 1), B({5, 5, 5}, 1);
  Rng R1(3), R2(3);
  A.fillRandom(R1);
  B.fillRandom(R2);
  EXPECT_EQ(Grid::maxAbsDiffInterior(A, B), 0.0);
  for (long Z = 0; Z < 5; ++Z)
    for (long Y = 0; Y < 5; ++Y)
      for (long X = 0; X < 5; ++X) {
        EXPECT_GE(A.at(X, Y, Z), -1.0);
        EXPECT_LT(A.at(X, Y, Z), 1.0);
      }
}

TEST(Grid, CopyInteriorAcrossLayouts) {
  Fold F;
  F.X = 2;
  F.Y = 2;
  F.Z = 2;
  Grid Scalar({6, 6, 6}, 1);
  Grid Folded({6, 6, 6}, 1, F);
  Rng R(5);
  Scalar.fillRandom(R);
  Folded.copyInteriorFrom(Scalar);
  EXPECT_EQ(Grid::maxAbsDiffInterior(Scalar, Folded), 0.0);
}

namespace {

/// True if every allocated double of \p A and \p B (halo and fold
/// padding included) has the same bits.
bool storageBitIdentical(const Grid &A, const Grid &B) {
  return A.allocElems() == B.allocElems() &&
         std::memcmp(A.data(), B.data(), A.allocElems() * sizeof(double)) ==
             0;
}

/// Element-wise interior copy through at(): the oracle for the fast path.
void copyInteriorByElement(Grid &Dst, const Grid &Src) {
  const GridDims &D = Dst.dims();
  for (long Z = 0; Z < D.Nz; ++Z)
    for (long Y = 0; Y < D.Ny; ++Y)
      for (long X = 0; X < D.Nx; ++X)
        Dst.at(X, Y, Z) = Src.at(X, Y, Z);
}

} // namespace

TEST(Grid, SameLayoutCopyMatchesElementwiseCopy) {
  ThreadPool Pool(4);
  for (Fold F : {Fold{1, 1, 1}, Fold{8, 1, 1}, Fold{4, 2, 1}, Fold{2, 2, 2}})
    for (int Halo : {1, 2, 3})
      for (GridDims Dims : {GridDims{13, 7, 5}, GridDims{9, 3, 40}})
        for (ThreadPool *P : {static_cast<ThreadPool *>(nullptr), &Pool}) {
          SCOPED_TRACE(F.str() + " halo " + std::to_string(Halo) + " " +
                       Dims.str() + (P ? " pool" : " serial"));
          Grid Src(Dims, Halo, F);
          Rng R(17);
          Src.fillRandom(R);
          Src.fillHalo(-5.0);
          // The destination's halo (and fold padding) holds a sentinel
          // the source's does not: the copy must leave it alone.
          Grid Dst(Dims, Halo, F);
          Dst.fill(42.0);
          Grid Want(Dims, Halo, F);
          Want.fill(42.0);
          copyInteriorByElement(Want, Src);

          Dst.copyInteriorFrom(Src, P);
          EXPECT_TRUE(storageBitIdentical(Dst, Want));
          EXPECT_EQ(Dst.at(-Halo, 0, 0), 42.0);
          EXPECT_EQ(Dst.at(Dims.Nx, Dims.Ny - 1, Dims.Nz + Halo - 1), 42.0);

          // A thread cap below the pool width takes the same path.
          Grid Capped(Dims, Halo, F);
          Capped.fill(42.0);
          Capped.copyInteriorFrom(Src, P, 2);
          EXPECT_TRUE(storageBitIdentical(Capped, Want));
        }
}

TEST(Grid, CrossLayoutCopiesMatchElementwise) {
  // Different folds or halos take the element-wise path; halo copies
  // visit only halo cells.  Both must agree with at()-based loops.
  GridDims Dims{13, 7, 5};
  Grid Src(Dims, 2, Fold{4, 2, 1});
  Rng R(3);
  Src.fillRandom(R);
  Src.fillHalo(-1.5);
  for (Fold F : {Fold{1, 1, 1}, Fold{8, 1, 1}, Fold{2, 2, 2}}) {
    SCOPED_TRACE(F.str());
    Grid Dst(Dims, 2, F), Want(Dims, 2, F);
    Dst.fill(7.0);
    Want.fill(7.0);
    copyInteriorByElement(Want, Src);
    Dst.copyInteriorFrom(Src);
    EXPECT_TRUE(storageBitIdentical(Dst, Want));

    Dst.copyHaloFrom(Src);
    for (long Z = -2; Z < Dims.Nz + 2; ++Z)
      for (long Y = -2; Y < Dims.Ny + 2; ++Y)
        for (long X = -2; X < Dims.Nx + 2; ++X) {
          bool Interior = X >= 0 && X < Dims.Nx && Y >= 0 && Y < Dims.Ny &&
                          Z >= 0 && Z < Dims.Nz;
          ASSERT_EQ(Dst.at(X, Y, Z), Src.at(X, Y, Z));
          if (!Interior) {
            ASSERT_EQ(Dst.at(X, Y, Z), -1.5);
          }
        }
  }
  // A halo-width mismatch still copies the interior.
  Grid Wide(Dims, 3);
  Wide.copyInteriorFrom(Src);
  EXPECT_EQ(Grid::maxAbsDiffInterior(Wide, Src), 0.0);
}

TEST(Grid, FillRandomSameValuesEveryFold) {
  // The draw order is z, y, x whatever the layout, so every fold holds
  // the same interior for one seed, and the same interior sum.
  GridDims Dims{13, 7, 5};
  Grid Ref(Dims, 1);
  Rng R0(9);
  Ref.fillRandom(R0);
  for (Fold F : {Fold{8, 1, 1}, Fold{4, 2, 1}, Fold{2, 2, 2}}) {
    SCOPED_TRACE(F.str());
    Grid G(Dims, 2, F);
    Rng R(9);
    G.fillRandom(R);
    EXPECT_EQ(Grid::maxAbsDiffInterior(G, Ref), 0.0);
    EXPECT_EQ(G.interiorSum(), Ref.interiorSum());
    EXPECT_EQ(G.at(-2, 0, 0), 0.0);
    EXPECT_EQ(G.at(Dims.Nx + 1, Dims.Ny + 1, Dims.Nz + 1), 0.0);
  }
}

TEST(Grid, CopyHaloFrom) {
  Grid A({4, 4, 4}, 1), B({4, 4, 4}, 1);
  A.fill(1.0);
  B.fill(0.0);
  A.fillHalo(3.0);
  B.copyHaloFrom(A);
  EXPECT_EQ(B.at(-1, 0, 0), 3.0);
  EXPECT_EQ(B.at(0, 0, 0), 0.0); // Interior untouched.
}

TEST(Grid, MaxAbsDiff) {
  Grid A({3, 3, 1}, 0), B({3, 3, 1}, 0);
  A.fill(1.0);
  B.fill(1.0);
  B.at(2, 1, 0) = 1.5;
  EXPECT_DOUBLE_EQ(Grid::maxAbsDiffInterior(A, B), 0.5);
}

TEST(Grid, FootprintBytes) {
  Grid G({10, 10, 10}, 1);
  EXPECT_EQ(G.footprintBytes(), 12ull * 12 * 12 * 8);
}

//===----------------------------------------------------------------------===//
// Folded layout property sweep: index mapping is a bijection and the
// accessors round-trip for every fold of 8 elements.
//===----------------------------------------------------------------------===//

struct FoldParam {
  int X, Y, Z;
};

class FoldLayoutTest : public ::testing::TestWithParam<FoldParam> {};

TEST_P(FoldLayoutTest, IndexBijective) {
  FoldParam P = GetParam();
  Fold F;
  F.X = P.X;
  F.Y = P.Y;
  F.Z = P.Z;
  Grid G({9, 7, 5}, 2, F);
  std::set<size_t> Seen;
  for (long Z = -2; Z < 7; ++Z)
    for (long Y = -2; Y < 9; ++Y)
      for (long X = -2; X < 11; ++X) {
        size_t Idx = G.linearIndex(X, Y, Z);
        EXPECT_LT(Idx, G.allocElems());
        EXPECT_TRUE(Seen.insert(Idx).second)
            << "collision at " << X << "," << Y << "," << Z;
      }
}

TEST_P(FoldLayoutTest, RoundTripValues) {
  FoldParam P = GetParam();
  Fold F;
  F.X = P.X;
  F.Y = P.Y;
  F.Z = P.Z;
  Grid G({8, 6, 4}, 1, F);
  for (long Z = 0; Z < 4; ++Z)
    for (long Y = 0; Y < 6; ++Y)
      for (long X = 0; X < 8; ++X)
        G.at(X, Y, Z) = X * 100 + Y * 10 + Z;
  for (long Z = 0; Z < 4; ++Z)
    for (long Y = 0; Y < 6; ++Y)
      for (long X = 0; X < 8; ++X)
        EXPECT_EQ(G.at(X, Y, Z), X * 100 + Y * 10 + Z);
}

INSTANTIATE_TEST_SUITE_P(
    Folds, FoldLayoutTest,
    ::testing::Values(FoldParam{1, 1, 1}, FoldParam{8, 1, 1},
                      FoldParam{4, 2, 1}, FoldParam{2, 2, 2},
                      FoldParam{1, 8, 1}, FoldParam{2, 4, 1},
                      FoldParam{4, 1, 2}, FoldParam{1, 2, 4}));

TEST(Grid, PeriodicHaloWrapsValues) {
  Grid G({4, 3, 2}, 1);
  G.fillFunction([](long X, long Y, long Z) {
    return X * 100.0 + Y * 10.0 + Z;
  });
  G.applyPeriodicHalo();
  EXPECT_EQ(G.at(-1, 0, 0), G.at(3, 0, 0));
  EXPECT_EQ(G.at(4, 1, 1), G.at(0, 1, 1));
  EXPECT_EQ(G.at(0, -1, 0), G.at(0, 2, 0));
  EXPECT_EQ(G.at(2, 1, 2), G.at(2, 1, 0));
  // Corner wraps in all dims.
  EXPECT_EQ(G.at(-1, -1, -1), G.at(3, 2, 1));
}

TEST(Grid, PeriodicUpwindAdvectionConservesMass) {
  // Forward-Euler upwind advection on a periodic torus conserves the sum
  // exactly (telescoping differences).
  GridDims Dims{8, 6, 4};
  StencilSpec S("upwind", {{0, 0, 0, -1.0, 0}, {-1, 0, 0, 1.0, 0}});
  Grid U(Dims, 1), F(Dims, 1);
  Rng R(17);
  U.fillRandom(R);
  double Mass0 = U.interiorSum();
  for (int Step = 0; Step < 5; ++Step) {
    U.applyPeriodicHalo();
    ReferenceInterpreter(S).runSweep({&U}, F);
    for (long Z = 0; Z < Dims.Nz; ++Z)
      for (long Y = 0; Y < Dims.Ny; ++Y)
        for (long X = 0; X < Dims.Nx; ++X)
          U.at(X, Y, Z) += 0.3 * F.at(X, Y, Z);
  }
  EXPECT_NEAR(U.interiorSum(), Mass0, 1e-10);
}

#include "stencil/GridNorms.h"

TEST(GridNorms, KnownValues) {
  Grid G({2, 2, 1}, 0);
  G.at(0, 0, 0) = 3.0;
  G.at(1, 0, 0) = -4.0;
  G.at(0, 1, 0) = 0.0;
  G.at(1, 1, 0) = 0.0;
  EXPECT_DOUBLE_EQ(normInf(G), 4.0);
  EXPECT_DOUBLE_EQ(normL2(G), std::sqrt(25.0 / 4.0));
  EXPECT_DOUBLE_EQ(normL1(G), 7.0 / 4.0);
  MinMax MM = interiorMinMax(G);
  EXPECT_DOUBLE_EQ(MM.Min, -4.0);
  EXPECT_DOUBLE_EQ(MM.Max, 3.0);
}

TEST(GridNorms, NormInequalities) {
  Grid G({6, 5, 4}, 1);
  Rng R(13);
  G.fillRandom(R);
  // L1 <= L2 <= Linf for normalized discrete norms.
  EXPECT_LE(normL1(G), normL2(G) + 1e-15);
  EXPECT_LE(normL2(G), normInf(G) + 1e-15);
  EXPECT_GT(normL1(G), 0.0);
}

TEST(GridNorms, DiffNorms) {
  Grid A({4, 4, 4}, 0), B({4, 4, 4}, 0);
  A.fill(1.0);
  B.fill(1.0);
  B.at(2, 2, 2) = 3.0;
  EXPECT_DOUBLE_EQ(diffNormInf(A, B), 2.0);
  EXPECT_DOUBLE_EQ(diffNormL2(A, B), std::sqrt(4.0 / 64.0));
}
