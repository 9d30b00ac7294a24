//===- tests/HotPathAllocTest.cpp - zero-allocation hot path guard ---------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Asserts the steady-state sweep path performs no heap allocation: once
/// the executor's kernel plan is built and bound, repeat runSweep /
/// runTimeSteps calls on the same geometry must not touch the allocator,
/// and neither must a warmed-up fused ODE step (explicit RK and PIRK).
/// The guard is a global operator new/delete replacement counting every
/// allocation, which is why this test lives in its own binary — the
/// replacement is process-wide and would distort allocation-sensitive
/// tests elsewhere.
///
//===----------------------------------------------------------------------===//

#include "codegen/KernelExecutor.h"
#include "ode/ExplicitRK.h"
#include "ode/PIRK.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<long> GAllocCount{0};

long allocCount() { return GAllocCount.load(std::memory_order_relaxed); }

void *countedAlloc(size_t Size, size_t Align) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  void *P = Align > alignof(std::max_align_t)
                ? std::aligned_alloc(Align, (Size + Align - 1) / Align * Align)
                : std::malloc(Size);
  if (!P)
    throw std::bad_alloc();
  return P;
}

} // namespace

// Global replacements: every flavor funnels through countedAlloc/free so
// sized, aligned, and nothrow variants are all counted.
void *operator new(size_t Size) {
  return countedAlloc(Size, alignof(std::max_align_t));
}
void *operator new[](size_t Size) {
  return countedAlloc(Size, alignof(std::max_align_t));
}
void *operator new(size_t Size, std::align_val_t Align) {
  return countedAlloc(Size, static_cast<size_t>(Align));
}
void *operator new[](size_t Size, std::align_val_t Align) {
  return countedAlloc(Size, static_cast<size_t>(Align));
}
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size);
}
void *operator new[](size_t Size, const std::nothrow_t &) noexcept {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace ys;

namespace {

struct Fixture {
  StencilSpec Spec = StencilSpec::heat3d();
  GridDims Dims{24, 16, 12};
  KernelConfig Config;
  Grid U, V;

  explicit Fixture(Fold F, BlockSize B = BlockSize()) {
    Config.VectorFold = F;
    Config.Block = B;
    U = Grid(Dims, 1, F);
    V = Grid(Dims, 1, F);
    Rng R(11);
    U.fillRandom(R);
    V.copyHaloFrom(U);
  }
};

} // namespace

TEST(HotPathAlloc, RepeatSweepsAllocateNothing) {
  for (Fold F : {Fold{1, 1, 1}, Fold{8, 1, 1}, Fold{2, 2, 1}}) {
    SCOPED_TRACE(F.str());
    Fixture Fx(F, {8, 8, 4}); // Blocked: many tile ranges per sweep.
    KernelExecutor Exec(Fx.Spec, Fx.Config);
    const Grid *In = &Fx.U;
    // Warm run: builds and binds the plan (allocates).
    Exec.runSweep(&In, 1, Fx.V);
    ASSERT_EQ(Exec.planBuilds(), 1u);
    long Before = allocCount();
    for (int I = 0; I < 10; ++I)
      Exec.runSweep(&In, 1, Fx.V);
    EXPECT_EQ(allocCount(), Before)
        << "steady-state runSweep touched the heap";
    EXPECT_EQ(Exec.planBuilds(), 1u);
  }
}

TEST(HotPathAlloc, RepeatTimeSteppingAllocatesNothing) {
  Fixture Plain({4, 1, 1}, {0, 8, 4});
  KernelExecutor Exec(Plain.Spec, Plain.Config);
  Exec.runTimeSteps(Plain.U, Plain.V, 2); // Warm-up: plan build + bind.
  long Before = allocCount();
  Exec.runTimeSteps(Plain.U, Plain.V, 6);
  EXPECT_EQ(allocCount(), Before)
      << "steady-state runTimeSteps touched the heap";
  EXPECT_EQ(Exec.planBuilds(), 1u);

  // Odd step counts end with the copy-back from Scratch into U.
  for (Fold F : {Fold{1, 1, 1}, Fold{8, 1, 1}, Fold{2, 2, 1}}) {
    SCOPED_TRACE(F.str());
    Fixture Fx(F, {0, 8, 4});
    KernelExecutor OExec(Fx.Spec, Fx.Config);
    OExec.runTimeSteps(Fx.U, Fx.V, 1);
    long OBefore = allocCount();
    OExec.runTimeSteps(Fx.U, Fx.V, 5);
    OExec.runTimeSteps(Fx.U, Fx.V, 1);
    EXPECT_EQ(allocCount(), OBefore)
        << "odd-step runTimeSteps (copy-back) touched the heap";
    EXPECT_EQ(OExec.planBuilds(), 1u);
  }

  // Temporal schedules: the warm-up runs one full macro step, so the
  // schedule's slab list is built once; later macro steps (and the plain
  // sweeps of a non-multiple step count) must reuse it.
  for (Schedule Sched :
       {Schedule::Wavefront, Schedule::Diamond, Schedule::DeepTemporal})
    for (int Depth : {2, 3}) {
      Fixture Fx({4, 1, 1}, {0, 8, 4});
      Fx.Config.Sched = Sched;
      Fx.Config.WavefrontDepth = Depth;
      SCOPED_TRACE(Fx.Config.str());
      KernelExecutor TExec(Fx.Spec, Fx.Config);
      TExec.runTimeSteps(Fx.U, Fx.V, Depth);
      long TBefore = allocCount();
      TExec.runTimeSteps(Fx.U, Fx.V, 3 * Depth + 1);
      EXPECT_EQ(allocCount(), TBefore)
          << "steady-state temporal runTimeSteps touched the heap";
      EXPECT_EQ(TExec.planBuilds(), 1u);
    }
}

TEST(HotPathAlloc, CounterActuallyCounts) {
  // Self-test of the guard: an allocation must move the counter.
  long Before = allocCount();
  volatile int *P = new int[32];
  EXPECT_GT(allocCount(), Before);
  delete[] const_cast<int *>(P);
}

TEST(HotPathAlloc, FusedODEStepsAllocateNothing) {
  // prepareWorkspace() owns every buffer a step needs (stage grids, the
  // fused sweep's plane ring, the RHS executor), so after one warm-up step
  // neither the fused RK step nor the PIRK step with fused correctors
  // touches the heap.
  Heat3DIVP Problem(12);
  const double H = Problem.suggestedDt();
  for (Fold F : {Fold{1, 1, 1}, Fold{4, 2, 1}}) {
    SCOPED_TRACE(F.str());
    KernelConfig Config;
    Config.VectorFold = F;
    Grid Y(Problem.dims(), Problem.halo(), F);
    Problem.initialCondition(Y);

    ExplicitRKIntegrator RK(ButcherTableau::classicRK4(),
                            RKVariant::FusedUpdate, Config);
    RKWorkspace RKWS;
    RK.prepareWorkspace(Problem, RKWS);
    RK.step(Problem, 0.0, H, Y, RKWS);
    long Before = allocCount();
    RK.step(Problem, H, H, Y, RKWS);
    EXPECT_EQ(allocCount(), Before) << "RK4 fused-update step touched the heap";

    PIRKIntegrator PIRK(ButcherTableau::lobattoIIIC3(), 2,
                        RKVariant::FusedArgument, Config);
    PIRKWorkspace PWS;
    PIRK.prepareWorkspace(Problem, PWS);
    PIRK.step(Problem, 0.0, H, Y, PWS);
    Before = allocCount();
    PIRK.step(Problem, H, H, Y, PWS);
    EXPECT_EQ(allocCount(), Before)
        << "PIRK fused-argument step touched the heap";
  }
}
