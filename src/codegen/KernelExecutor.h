//===- codegen/KernelExecutor.h - Stencil kernel executor --------*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a StencilSpec on grids, applying the same transformations the
/// YASK-generated code would contain: spatial cache blocking, folded SIMD
/// layout, thread decomposition of the outer blocked loop, and temporal
/// wavefront blocking over multiple timesteps.  Its ground truth is the
/// ReferenceInterpreter (verify/ReferenceInterpreter.h).
///
/// The per-range inner kernels live in a KernelPlan compiled lazily on
/// first use and cached while the grid geometry stays the same, so
/// repeated sweeps (tuner warm-up + timed trials, multi-step runs) reuse
/// one plan and the steady-state hot path performs no allocation.
///
/// Semantics: one sweep computes Out(x,y,z) = sum_p Coeff_p * In_g(x+dx, ...)
/// for every interior point; halo cells provide boundary values and are
/// never written.  Multi-timestep runs treat the halo as a constant-in-time
/// Dirichlet boundary.
///
//===----------------------------------------------------------------------===//

#ifndef YS_CODEGEN_KERNELEXECUTOR_H
#define YS_CODEGEN_KERNELEXECUTOR_H

#include "codegen/JitCompiler.h"
#include "codegen/KernelConfig.h"
#include "codegen/KernelPlan.h"
#include "codegen/SchedulePlan.h"
#include "codegen/SourceEmitter.h"
#include "stencil/Grid.h"
#include "stencil/StencilSpec.h"
#include "support/ThreadPool.h"

#include <memory>
#include <vector>

namespace ys {

/// Executes one stencil under a fixed kernel configuration.
///
/// Not copyable (it owns its cached KernelPlan).  An executor may be
/// driven from one thread at a time; the parallelism is internal (the
/// pool passed to the run methods).
class KernelExecutor {
public:
  KernelExecutor(StencilSpec Spec, KernelConfig Config);

  const StencilSpec &spec() const { return Spec; }
  const KernelConfig &config() const { return Config; }

  /// Applies one sweep: Out = stencil(Inputs).  Inputs.size() must equal
  /// spec().numInputGrids(); all grids share dims, halo >= radius, and use
  /// the configured fold.  \p Pool, when non-null and Config.Threads > 1,
  /// parallelizes the outer blocked loop.
  void runSweep(const std::vector<const Grid *> &Inputs, Grid &Out,
                ThreadPool *Pool = nullptr) const;

  /// Pointer-array overload of runSweep for callers that must not
  /// allocate (the steady-state stepping loop, benchmarks).
  void runSweep(const Grid *const *Inputs, unsigned NumInputs, Grid &Out,
                ThreadPool *Pool = nullptr) const;

  /// Applies \p Steps timesteps to the single-input stencil: U <- S^Steps(U),
  /// using \p Scratch as the second buffer (same shape/halo/fold as U, halo
  /// already carrying the boundary values).  Temporal configs run whole
  /// macro steps by walking the schedule's SchedulePlan, cached per
  /// geometry; leftover steps run as plain sweeps.
  void runTimeSteps(Grid &U, Grid &Scratch, int Steps,
                    ThreadPool *Pool = nullptr) const;

  /// The level-slab primitive the temporal macro steps drive, split for
  /// callers that spread one time level over their own pool tasks (the
  /// distributed stepper's interior/boundary regions).  bindLevel() binds
  /// level \p S of the two-buffer parity scheme (level s lives in \p Even
  /// when s is even; level 0 == Even) on the driving thread, after
  /// prepare().  runLevelTile() then computes z in [Z0, Z1) x y in
  /// [Y0, Y1) of that level over the full x extent; calls on disjoint
  /// tiles may run concurrently until the next bind.
  void bindLevel(Grid &Even, Grid &Odd, int S) const;
  void runLevelTile(const GridDims &Dims, long Z0, long Z1, long Y0,
                    long Y1) const;

  /// Pre-compiles the backend (plan or JIT) for \p Out's geometry on the
  /// calling thread, so later runs from pool tasks only read the cached
  /// state.  Idempotent and cheap once built.
  void prepare(const Grid &Out) const { prepareBackend(Out); }

  /// Lattice updates per sweep for the given dims.
  static long lupsPerSweep(const GridDims &Dims) { return Dims.lups(); }

  /// Times the cached kernel plan has been (re)built.  A full
  /// runTimeSteps() on one geometry costs exactly one build — this is the
  /// regression handle for the "plan per tile" allocation bug.
  unsigned planBuilds() const { return PlanBuildCount; }

  /// SIMD target the cached plan dispatches to; before the first run,
  /// the target a new plan would get (selectSimdTarget()).
  SimdTarget planTarget() const {
    return Plan ? Plan->target() : selectSimdTarget();
  }

  /// The cached plan, or null before the first run.  Exposed for tests
  /// and benchmarks that inspect plan properties (e.g. unit-stride point
  /// counts).
  const KernelPlan *plan() const { return Plan.get(); }

  /// \name JIT backend.
  ///
  /// Sweeps dispatch either through the in-process KernelPlan or through
  /// a runtime-compiled range kernel (codegen/JitCompiler.h).  The JIT
  /// kernel bakes in only (stencil, fold, geometry); blocking, threading,
  /// and wavefront scheduling stay in this class, so one compiled object
  /// serves every (block, threads, wavefront) variant.
  /// @{

  /// Backend sweeps are requested to dispatch through; initialized from
  /// YS_BACKEND (default plan).
  KernelBackend backend() const { return Backend; }

  /// Overrides the requested backend; takes effect on the next run and
  /// clears any earlier jit-unavailable fallback decision.
  void setBackend(KernelBackend B);

  /// Backend the current sweeps actually execute through: Jit only once
  /// a compiled kernel is bound; Plan before the first run and after a
  /// compile failure forced the fallback.
  KernelBackend activeBackend() const {
    return JitFn ? KernelBackend::Jit : KernelBackend::Plan;
  }

  /// Times a JIT kernel was compiled/loaded for this executor; like
  /// planBuilds(), a full runTimeSteps() on one geometry costs one build.
  unsigned jitBuilds() const { return JitBuildCount; }

  /// @}

private:
  /// Returns the cached plan, (re)compiling it when absent, when \p Out's
  /// geometry changed, or when the selected SIMD target changed.
  KernelPlan &ensurePlan(const Grid &Out) const;

  /// Ensures a JIT range kernel for \p Out's geometry is loaded; false
  /// (with a one-time warning) when compilation is unavailable, after
  /// which this executor stays on the plan path.
  bool ensureJit(const Grid &Out) const;

  /// Prepares whichever backend the next sweeps run through (compiling
  /// the plan or the JIT object as needed).
  void prepareBackend(const Grid &Out) const;

  /// Binds the grid base pointers on the prepared backend.
  void bindBuffers(const Grid *const *Inputs, unsigned NumInputs,
                   Grid &Out) const;

  /// Thin dispatcher into the bound backend for one rectangular range.
  void sweepRange(long Z0, long Z1, long Y0, long Y1, long X0,
                  long X1) const;
  void sweepBlockedSerialZ(const GridDims &Dims, long Z0, long Z1) const;

  /// Computes time level \p S over z in [Z0, Z1) of the two-buffer parity
  /// scheme (level s lives in Even when s is even), decomposing the slab
  /// over (z,y) tiles when a pool is available.  Every temporal macro step
  /// is a walk over a SchedulePlan's slabs through this primitive.
  void runLevelSlab(Grid *Even, Grid *Odd, int S, long Z0, long Z1,
                    const BlockSize &B, ThreadPool *Pool,
                    unsigned Threads) const;

  /// Returns the cached slab list of one macro step for \p Dims (with
  /// resolved z block \p Bz), rebuilding it when the geometry changed.
  const SchedulePlan &ensureSchedule(const GridDims &Dims, long Bz) const;

  StencilSpec Spec;
  KernelConfig Config;
  /// Geometry-keyed compiled plan.  Mutable: plans are a cache, and all
  /// public entry points stay const.  Rebinding/rebuilding is only done
  /// by the (single) driving thread, never by pool workers.
  mutable std::unique_ptr<KernelPlan> Plan;
  mutable unsigned PlanBuildCount = 0;
  /// Temporal slab list, cached per geometry next to the kernel plan so
  /// repeat macro steps allocate nothing.
  mutable SchedulePlan SchedPlan;

  /// JIT backend state, same caching discipline as the plan: rebuilt on
  /// geometry change by the driving thread, read-only for pool workers.
  KernelBackend Backend = selectKernelBackend();
  mutable JitKernel JitK;             ///< Keeps the .so mapped.
  mutable JitRangeKernelFn JitFn = nullptr; ///< Non-null = jit active.
  mutable JitGeometry JitGeo;         ///< Geometry JitFn was built for.
  mutable bool JitFailed = false;     ///< Compile failed; stay on plans.
  mutable unsigned JitBuildCount = 0;
  /// Bound base pointers (preallocated: the steady-state hot path must
  /// not allocate).
  mutable std::vector<const double *> JitIns;
  mutable double *JitOut = nullptr;
};

} // namespace ys

#endif // YS_CODEGEN_KERNELEXECUTOR_H
