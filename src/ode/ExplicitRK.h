//===- ode/ExplicitRK.h - Explicit Runge-Kutta integrator --------*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explicit Runge-Kutta time integration over grid IVPs, with the
/// implementation variants Offsite enumerates.  All variants compute the
/// bit-identical update (same operation order per point); they differ in
/// how the work is organized over memory — which is exactly what the
/// paper's tuning selects between:
///
///  * StageSeparate: materialize each stage argument grid with an axpy
///    sweep, then one RHS sweep per stage, then one update sweep.
///    Always available, maximal memory traffic.
///  * FusedArgument: rebuild the stage argument on the fly inside the RHS
///    sweep (once per cell, into a cache-resident plane ring), eliminating
///    the argument grid and its sweeps.  Requires the stencil form.
///  * FusedUpdate: FusedArgument plus the final state update folded into
///    the last stage sweep.  Requires the stencil form.
///
/// The integrator reports its sweep/traffic structure so the Offsite layer
/// can predict variant cost with the ECM model.
///
//===----------------------------------------------------------------------===//

#ifndef YS_ODE_EXPLICITRK_H
#define YS_ODE_EXPLICITRK_H

#include "codegen/KernelConfig.h"
#include "codegen/KernelExecutor.h"
#include "ode/ButcherTableau.h"
#include "ode/IVP.h"
#include "support/ThreadPool.h"

#include <memory>
#include <string>
#include <vector>

namespace ys {

/// Implementation-variant selector.
enum class RKVariant {
  StageSeparate,
  FusedArgument,
  FusedUpdate,
};

const char *rkVariantName(RKVariant V);

/// Reusable per-integrator workspace: everything a step needs, allocated by
/// prepareWorkspace() (the ring by the first fused sweep), so the
/// steady-state step allocates nothing.
struct RKWorkspace {
  std::vector<Grid> K;      ///< One grid per stage.
  Grid Arg;                 ///< Stage-argument buffer (StageSeparate).
  Grid Next;                ///< New-state buffer (FusedUpdate).
  std::vector<double> Ring; ///< Stage-argument plane ring (fused variants).
  /// RHS stencil executor under the integrator's config (StageSeparate on
  /// stencil-form IVPs); caches its kernel plan across stages and steps.
  std::unique_ptr<KernelExecutor> Rhs;
};

/// Structural cost of one step (input to the Offsite predictor).
struct RKStepStructure {
  /// One grid sweep of a step.  Inputs are split by access pattern:
  /// stencil inputs are traversed with the RHS offset pattern (the state
  /// and, in fused variants, the stage grids whose argument is rebuilt at
  /// every offset); center inputs are read at offset zero only (axpy and
  /// update operands).
  struct Sweep {
    std::string What;
    unsigned StencilInputs = 0;
    unsigned CenterInputs = 0;
    unsigned Outputs = 1;
    unsigned FlopsPerLup = 0;
    bool IsRhs = false; ///< Applies the RHS stencil (has its radius).

    unsigned gridsTouched() const {
      return StencilInputs + CenterInputs + Outputs;
    }
  };
  std::vector<Sweep> Sweeps;
  unsigned GridsAllocated = 0;
};

/// Fixed-step explicit RK integrator over a single-grid IVP.
class ExplicitRKIntegrator {
public:
  /// \p Tableau must be explicit.  \p Config controls the execution of
  /// RHS sweeps (blocking/threads) for stencil-form IVPs.
  ExplicitRKIntegrator(ButcherTableau Tableau, RKVariant Variant,
                       KernelConfig Config = KernelConfig());

  const ButcherTableau &tableau() const { return TB; }
  RKVariant variant() const { return Variant; }

  /// True if \p Problem supports this variant.
  bool supports(const IVP &Problem) const;

  /// Allocates (or reuses) workspace for \p Problem.
  void prepareWorkspace(const IVP &Problem, RKWorkspace &WS) const;

  /// Advances Y by one step of size H at time T.
  void step(const IVP &Problem, double T, double H, Grid &Y, RKWorkspace &WS,
            ThreadPool *Pool = nullptr) const;

  /// Advances Y by \p Steps fixed steps from \p T0; returns the final time.
  double integrate(const IVP &Problem, double T0, double H, int Steps,
                   Grid &Y, RKWorkspace &WS, ThreadPool *Pool = nullptr) const;

  /// The step's sweep structure for \p Problem (for the cost model).
  RKStepStructure stepStructure(const IVP &Problem) const;

  /// Embedded-pair error estimate of the last step() call; only valid if
  /// the tableau hasEmbedded() and the variant is StageSeparate.
  double lastErrorEstimate() const { return LastErrorEstimate; }

private:
  void stepStageSeparate(const IVP &Problem, double T, double H, Grid &Y,
                         RKWorkspace &WS, ThreadPool *Pool) const;
  /// Both fused variants: one fusedStageSweep per stage (the serial
  /// rolling-window kernel, so no time or pool argument).
  void stepFused(const IVP &Problem, double H, Grid &Y, RKWorkspace &WS,
                 bool FuseUpdate) const;

  ButcherTableau TB;
  RKVariant Variant;
  KernelConfig Config;
  mutable double LastErrorEstimate = 0.0;
};

} // namespace ys

#endif // YS_ODE_EXPLICITRK_H
