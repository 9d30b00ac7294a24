//===- tests/SolutionTest.cpp - stencil solution tests -----------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solution/StencilSolution.h"

#include "codegen/KernelExecutor.h"
#include "verify/ReferenceInterpreter.h"

#include <gtest/gtest.h>

using namespace ys;

namespace {

const char *ChainDsl = R"(
  stencil chain {
    grid u, k1, k2;
    k1[x,y,z] = u[x+1,y,z] + u[x-1,y,z] - 2 * u[x,y,z];
    k2[x,y,z] = k1[x,y+1,z] + k1[x,y-1,z] - 2 * k1[x,y,z];
  }
)";

const char *FusableDsl = R"(
  stencil step {
    grid u, k, v;
    k[x,y,z] = u[x+1,y,z] - u[x-1,y,z];
    v[x,y,z] = u[x,y,z] + 0.5 * k[x,y,z];
  }
)";

} // namespace

TEST(StencilSolution, CreatesGridsAndPlan) {
  auto SolOr = StencilSolution::fromDslSource(ChainDsl, {12, 10, 8});
  ASSERT_TRUE(static_cast<bool>(SolOr)) << SolOr.takeError().message();
  StencilSolution &Sol = *SolOr;
  EXPECT_EQ(Sol.bundle().numGrids(), 3u);
  EXPECT_EQ(Sol.halo(), 1);
  // Dependent at nonzero offsets: two separate sweeps.
  ASSERT_EQ(Sol.plan().size(), 2u);
  EXPECT_NE(Sol.gridByName("u"), nullptr);
  EXPECT_NE(Sol.gridByName("k2"), nullptr);
  EXPECT_EQ(Sol.gridByName("nope"), nullptr);
}

TEST(StencilSolution, FusableEquationsShareASweep) {
  auto SolOr = StencilSolution::fromDslSource(FusableDsl, {10, 10, 4});
  ASSERT_TRUE(static_cast<bool>(SolOr));
  ASSERT_EQ(SolOr->plan().size(), 1u);
  EXPECT_EQ(SolOr->plan()[0].Equations.size(), 2u);
  EXPECT_EQ(SolOr->plan()[0].ModelSpec.OutputGrids, 2u);
  std::string Desc = SolOr->describePlan();
  EXPECT_NE(Desc.find("fused k, v"), std::string::npos);
}

TEST(StencilSolution, RunMatchesManualSweeps) {
  auto SolOr = StencilSolution::fromDslSource(ChainDsl, {12, 10, 8});
  ASSERT_TRUE(static_cast<bool>(SolOr));
  StencilSolution &Sol = *SolOr;
  Rng R(3);
  Sol.gridByName("u")->fillRandom(R);

  // Manual reference: apply the two equations in order on copies.
  Grid U({12, 10, 8}, 1), K1({12, 10, 8}, 1), K2({12, 10, 8}, 1);
  U.copyInteriorFrom(*Sol.gridByName("u"));
  const auto &Eqs = Sol.bundle().equations();
  ReferenceInterpreter(Eqs[0].Spec).runSweep({&U, &K1, &K2}, K1);
  ReferenceInterpreter(Eqs[1].Spec).runSweep({&U, &K1, &K2}, K2);

  Sol.run();
  EXPECT_EQ(Grid::maxAbsDiffInterior(*Sol.gridByName("k1"), K1), 0.0);
  EXPECT_EQ(Grid::maxAbsDiffInterior(*Sol.gridByName("k2"), K2), 0.0);
}

TEST(StencilSolution, FusedRunMatchesUnfusedSemantics) {
  auto SolOr = StencilSolution::fromDslSource(FusableDsl, {9, 8, 7});
  ASSERT_TRUE(static_cast<bool>(SolOr));
  StencilSolution &Sol = *SolOr;
  Rng R(5);
  Sol.gridByName("u")->fillRandom(R);
  Grid U({9, 8, 7}, 1), K({9, 8, 7}, 1), V({9, 8, 7}, 1);
  U.copyInteriorFrom(*Sol.gridByName("u"));
  const auto &Eqs = Sol.bundle().equations();
  ReferenceInterpreter(Eqs[0].Spec).runSweep({&U, &K, &V}, K);
  ReferenceInterpreter(Eqs[1].Spec).runSweep({&U, &K, &V}, V);

  Sol.run();
  EXPECT_EQ(Grid::maxAbsDiffInterior(*Sol.gridByName("k"), K), 0.0);
  EXPECT_EQ(Grid::maxAbsDiffInterior(*Sol.gridByName("v"), V), 0.0);
}

TEST(StencilSolution, BlockedConfigSameResult) {
  KernelConfig Blocked;
  Blocked.Block.Y = 4;
  auto A = StencilSolution::fromDslSource(ChainDsl, {12, 12, 12});
  auto B = StencilSolution::fromDslSource(ChainDsl, {12, 12, 12}, Blocked);
  ASSERT_TRUE(static_cast<bool>(A) && static_cast<bool>(B));
  Rng R1(9), R2(9);
  A->gridByName("u")->fillRandom(R1);
  B->gridByName("u")->fillRandom(R2);
  A->runSteps(2);
  B->runSteps(2);
  EXPECT_EQ(Grid::maxAbsDiffInterior(*A->gridByName("k2"),
                                     *B->gridByName("k2")),
            0.0);
}

TEST(StencilSolution, ThreadedRunSameResult) {
  ThreadPool Pool(3);
  KernelConfig Threaded;
  Threaded.Threads = 3;
  auto A = StencilSolution::fromDslSource(ChainDsl, {14, 12, 10});
  auto B =
      StencilSolution::fromDslSource(ChainDsl, {14, 12, 10}, Threaded);
  ASSERT_TRUE(static_cast<bool>(A) && static_cast<bool>(B));
  Rng R1(11), R2(11);
  A->gridByName("u")->fillRandom(R1);
  B->gridByName("u")->fillRandom(R2);
  A->run();
  B->run(&Pool);
  EXPECT_EQ(Grid::maxAbsDiffInterior(*A->gridByName("k2"),
                                     *B->gridByName("k2")),
            0.0);
}

TEST(StencilSolution, PredictsPositiveTimeAndFusionHelps) {
  MachineModel M = MachineModel::cascadeLakeSP();
  ECMModel Model(M);
  GridDims Dims{256, 256, 128};
  auto Fused = StencilSolution::fromDslSource(FusableDsl, Dims);
  ASSERT_TRUE(static_cast<bool>(Fused));
  double SecFused = Fused->predictSecondsPerStep(Model, 20);
  EXPECT_GT(SecFused, 0.0);

  // The same program with an artificial dependence that blocks fusion
  // needs two sweeps and more predicted time.
  const char *Unfusable = R"(
    stencil step2 {
      grid u, k, v;
      k[x,y,z] = u[x+1,y,z] - u[x-1,y,z];
      v[x,y,z] = u[x,y,z] + 0.5 * k[x+1,y,z];
    }
  )";
  auto Split = StencilSolution::fromDslSource(Unfusable, Dims);
  ASSERT_TRUE(static_cast<bool>(Split));
  ASSERT_EQ(Split->plan().size(), 2u);
  EXPECT_GT(Split->predictSecondsPerStep(Model, 20), SecFused);
}

TEST(StencilSolution, ChecksumTracksState) {
  auto SolOr = StencilSolution::fromDslSource(FusableDsl, {8, 8, 8});
  ASSERT_TRUE(static_cast<bool>(SolOr));
  double Empty = SolOr->checksum();
  EXPECT_EQ(Empty, 0.0);
  SolOr->gridByName("u")->fill(1.0);
  SolOr->run();
  EXPECT_NE(SolOr->checksum(), 0.0);
}

TEST(StencilSolution, RejectsInvalidBundle) {
  BundleEquation Eq;
  Eq.OutputGrid = 7; // Out of range.
  Eq.Spec = StencilSpec::star3d(1);
  StencilBundle Bad("bad", {"u"}, {Eq});
  auto SolOr = StencilSolution::create(Bad, {8, 8, 8});
  EXPECT_FALSE(static_cast<bool>(SolOr));
}

TEST(StencilSolution, ThreadedFusedGroupSameResult) {
  ThreadPool Pool(3);
  KernelConfig Threaded;
  Threaded.Threads = 3;
  auto A = StencilSolution::fromDslSource(FusableDsl, {12, 11, 10});
  auto B = StencilSolution::fromDslSource(FusableDsl, {12, 11, 10},
                                          Threaded);
  ASSERT_TRUE(static_cast<bool>(A) && static_cast<bool>(B));
  ASSERT_EQ(A->plan().size(), 1u); // Fused group.
  Rng R1(13), R2(13);
  A->gridByName("u")->fillRandom(R1);
  B->gridByName("u")->fillRandom(R2);
  A->run();
  B->run(&Pool);
  EXPECT_EQ(Grid::maxAbsDiffInterior(*A->gridByName("v"),
                                     *B->gridByName("v")),
            0.0);
}
