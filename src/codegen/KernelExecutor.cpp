//===- codegen/KernelExecutor.cpp - Stencil kernel executor ----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/KernelExecutor.h"

#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace ys;

KernelExecutor::KernelExecutor(StencilSpec Spec, KernelConfig Config)
    : Spec(std::move(Spec)), Config(Config) {
  assert(this->Spec.validate().empty() && "invalid stencil spec");
  assert(this->Config.validate().empty() && "invalid kernel config");
  JitIns.resize(this->Spec.numInputGrids(), nullptr);
}

void KernelExecutor::setBackend(KernelBackend B) {
  if (Backend == B)
    return;
  Backend = B;
  JitK = JitKernel();
  JitFn = nullptr;
  JitFailed = false;
}

const SchedulePlan &KernelExecutor::ensureSchedule(const GridDims &Dims,
                                                   long Bz) const {
  if (!SchedPlan.matches(Config.Sched, Config.WavefrontDepth, Dims.Nz,
                         Spec.radius(), Bz))
    SchedPlan = buildSchedulePlan(Config.Sched, Config.WavefrontDepth,
                                  Dims.Nz, Spec.radius(), Bz);
  return SchedPlan;
}

KernelPlan &KernelExecutor::ensurePlan(const Grid &Out) const {
  SimdTarget Target = selectSimdTarget();
  if (!Plan || !Plan->matchesGeometry(Out) || Plan->target() != Target) {
    Plan = std::make_unique<KernelPlan>(Spec, Config, Out, Target);
    ++PlanBuildCount;
  }
  return *Plan;
}

bool KernelExecutor::ensureJit(const Grid &Out) const {
  if (JitFn && JitGeo.matches(Out))
    return true;
  if (JitFailed)
    return false;
  JitGeometry G(Out);
  std::string Source = SourceEmitter::emitJitTranslationUnit(Spec, G);
  Expected<JitKernel> Kernel = JitRuntime::instance().compile(
      Source, SourceEmitter::jitKernelSymbol());
  if (!Kernel) {
    static bool Warned = false;
    if (!Warned) {
      std::fprintf(stderr,
                   "ys: jit backend unavailable (%s); falling back to "
                   "kernel plans\n",
                   Kernel.takeError().message().c_str());
      Warned = true;
    }
    JitFailed = true;
    JitK = JitKernel();
    JitFn = nullptr;
    return false;
  }
  JitK = *Kernel;
  JitFn = JitK.rangeKernel();
  JitGeo = G;
  ++JitBuildCount;
  return true;
}

void KernelExecutor::prepareBackend(const Grid &Out) const {
  if (Backend == KernelBackend::Jit && ensureJit(Out))
    return;
  JitFn = nullptr; // Plan path: sweepRange must not see a stale kernel.
  ensurePlan(Out);
}

void KernelExecutor::bindBuffers(const Grid *const *Inputs,
                                 unsigned NumInputs, Grid &Out) const {
  if (JitFn) {
    assert(JitIns.size() == Spec.numInputGrids() && "input slots mismatch");
    for (unsigned G = 0; G < Spec.numInputGrids(); ++G)
      JitIns[G] = Inputs[G]->data();
    JitOut = Out.data();
    return;
  }
  Plan->bind(Inputs, NumInputs, Out);
}

/// Computes one rectangular region through the bound backend.  Both the
/// plan and the JIT kernel own/bake every table they read, so this is
/// allocation-free.
void KernelExecutor::sweepRange(long Z0, long Z1, long Y0, long Y1, long X0,
                                long X1) const {
  if (JitFn) {
    JitFn(JitIns.data(), JitOut, Z0, Z1, Y0, Y1, X0, X1);
    return;
  }
  Plan->runRange(Z0, Z1, Y0, Y1, X0, X1);
}

/// Runs the blocked loop nest over z in [Z0, Z1) on the calling thread.
void KernelExecutor::sweepBlockedSerialZ(const GridDims &Dims, long Z0,
                                         long Z1) const {
  BlockSize B = Config.Block.resolved(Dims);
  for (long Zb = Z0; Zb < Z1; Zb += B.Z) {
    long Ze = std::min(Zb + B.Z, Z1);
    for (long Yb = 0; Yb < Dims.Ny; Yb += B.Y) {
      long Ye = std::min(Yb + B.Y, Dims.Ny);
      for (long Xb = 0; Xb < Dims.Nx; Xb += B.X) {
        long Xe = std::min(Xb + B.X, Dims.Nx);
        sweepRange(Zb, Ze, Yb, Ye, Xb, Xe);
      }
    }
  }
}

void KernelExecutor::runSweep(const std::vector<const Grid *> &Inputs,
                              Grid &Out, ThreadPool *Pool) const {
  runSweep(Inputs.data(), static_cast<unsigned>(Inputs.size()), Out, Pool);
}

void KernelExecutor::runSweep(const Grid *const *Inputs, unsigned NumInputs,
                              Grid &Out, ThreadPool *Pool) const {
  assert(NumInputs >= Spec.numInputGrids() && "missing input grids");
  assert(Out.halo() >= Spec.radius() && "halo smaller than stencil radius");
  for (unsigned I = 0; I < NumInputs; ++I) {
    assert(Inputs[I]->dims() == Out.dims() && "input dims mismatch");
    assert(Inputs[I]->halo() == Out.halo() && "input halo mismatch");
    assert(Inputs[I]->fold() == Out.fold() && "input fold mismatch");
  }
  assert(Out.fold() == Config.VectorFold && "grid fold != configured fold");

  prepareBackend(Out);
  bindBuffers(Inputs, NumInputs, Out);

  const GridDims &Dims = Out.dims();
  // A candidate config may request fewer threads than the pool has; honor
  // it, otherwise tuner measurements of Threads=k all run pool-wide.
  unsigned Threads =
      Pool ? std::min(Config.Threads, Pool->numThreads()) : 1;
  if (!Pool || Threads <= 1) {
    sweepBlockedSerialZ(Dims, 0, Dims.Nz);
    return;
  }

  // Decompose over 2-D (zBlock, yBlock) tiles at cache-block granularity.
  // Compared with static z chunks this exposes Nz/B.Z * Ny/B.Y units of
  // work, so thread counts beyond the z-block count still get fed, and the
  // pool's stealing evens out non-divisible tile grids.
  BlockSize B = Config.Block.resolved(Dims);
  long NumZBlocks = (Dims.Nz + B.Z - 1) / B.Z;
  long NumYBlocks = (Dims.Ny + B.Y - 1) / B.Y;
  Pool->parallelForTiles(
      NumZBlocks, NumYBlocks,
      [&](unsigned, long Zb, long Yb) {
        long Z0 = Zb * B.Z, Z1 = std::min(Z0 + B.Z, Dims.Nz);
        long Y0 = Yb * B.Y, Y1 = std::min(Y0 + B.Y, Dims.Ny);
        for (long Xb = 0; Xb < Dims.Nx; Xb += B.X)
          sweepRange(Z0, Z1, Y0, Y1, Xb, std::min(Xb + B.X, Dims.Nx));
      },
      Threads);
}

void KernelExecutor::runTimeSteps(Grid &U, Grid &Scratch, int Steps,
                                  ThreadPool *Pool) const {
  assert(Spec.numInputGrids() == 1 &&
         "time stepping requires a single-input stencil");
  assert(Steps >= 0 && "negative step count");
  // KernelConfig::validate() rejects WavefrontDepth < 1 and every external
  // entry point (driver, service, verify harness) checks it; a silent
  // clamp here would hide an unvalidated call site.
  assert(Config.WavefrontDepth >= 1 &&
         "unvalidated config reached the executor (wf < 1)");
  int Depth = Config.WavefrontDepth;

  // One structured record per multi-step run (phase "kernel_steps" with
  // the scope's wall time).  The field arguments themselves allocate, so
  // they are gated on tracing being enabled to keep the disabled hot path
  // allocation-free.
  TraceScope Scope("kernel_steps");
  if (Trace::enabled())
    Scope.field("stencil", Spec.name())
        .field("config", Config.str())
        .field("dims", U.dims().str())
        .field("steps", Steps)
        .field("threads",
               Pool ? std::min(Config.Threads, Pool->numThreads()) : 1u);

  Grid *Even = &U;
  Grid *Odd = &Scratch;
  int Done = 0;

  // Temporal macro steps of Depth sweeps each: walk the cached slab list
  // of the configured schedule.  Every schedule shares the two-buffer
  // parity scheme (level s lands in Even when s is even), so the odd-depth
  // swap and the final copy-back are schedule-independent.  One plan (or
  // JIT kernel) serves both buffers; each slab only rebinds pointers.
  if (Config.isTemporal() && Steps >= Depth) {
    prepareBackend(U);
    BlockSize B = Config.Block.resolved(U.dims());
    const SchedulePlan &SP = ensureSchedule(U.dims(), B.Z);
    unsigned Threads =
        Pool ? std::min(Config.Threads, Pool->numThreads()) : 1;
    for (; Steps - Done >= Depth; Done += Depth) {
      for (const LevelSlab &L : SP.Slabs)
        runLevelSlab(Even, Odd, L.S, L.Z0, L.Z1, B, Pool, Threads);
      if (Depth % 2 != 0)
        std::swap(Even, Odd);
    }
  }

  // Remaining plain sweeps (pointer-array path: no per-sweep allocation).
  for (; Done < Steps; ++Done) {
    const Grid *In = Even;
    runSweep(&In, 1, *Odd, Pool);
    std::swap(Even, Odd);
  }

  // An odd sweep count leaves the result in Scratch: copy it back on the
  // same pool and thread cap as the sweeps.
  Timer CopyTimer;
  if (Even != &U)
    U.copyInteriorFrom(*Even, Pool,
                       Pool ? std::min(Config.Threads, Pool->numThreads())
                            : 1u);
  if (Trace::enabled())
    Scope.field("copy_back_s", Even != &U ? CopyTimer.seconds() : 0.0);
}

void KernelExecutor::bindLevel(Grid &Even, Grid &Odd, int S) const {
  assert(Even.dims() == Odd.dims() && "buffer dims mismatch");
  const Grid *SrcPtr = S % 2 == 0 ? &Odd : &Even; // Level S-1's buffer.
  bindBuffers(&SrcPtr, 1, S % 2 == 0 ? Even : Odd);
}

void KernelExecutor::runLevelTile(const GridDims &Dims, long Z0, long Z1,
                                  long Y0, long Y1) const {
  long BX = Config.Block.resolved(Dims).X;
  for (long Xb = 0; Xb < Dims.Nx; Xb += BX)
    sweepRange(Z0, Z1, Y0, Y1, Xb, std::min(Xb + BX, Dims.Nx));
}

void KernelExecutor::runLevelSlab(Grid *Even, Grid *Odd, int S, long Z0,
                                  long Z1, const BlockSize &B,
                                  ThreadPool *Pool,
                                  unsigned Threads) const {
  const GridDims &Dims = Even->dims();
  bindLevel(*Even, *Odd, S);
  if (Pool && Threads > 1) {
    // The slab is often at most one z block deep, but enumerating (zBlock,
    // yBlock) tiles keeps the same tile->thread mapping as runSweep and
    // still scales past the y-block count for thicker slabs.
    long NumZT = (Z1 - Z0 + B.Z - 1) / B.Z;
    long NumYT = (Dims.Ny + B.Y - 1) / B.Y;
    Pool->parallelForTiles(
        NumZT, NumYT,
        [&](unsigned, long Zt, long Yt) {
          long SZ0 = Z0 + Zt * B.Z;
          long Y0 = Yt * B.Y;
          runLevelTile(Dims, SZ0, std::min(SZ0 + B.Z, Z1), Y0,
                       std::min(Y0 + B.Y, Dims.Ny));
        },
        Threads);
    return;
  }
  for (long Yb = 0; Yb < Dims.Ny; Yb += B.Y)
    runLevelTile(Dims, Z0, Z1, Yb, std::min(Yb + B.Y, Dims.Ny));
}
