//===- ode/PIRK.h - Parallel iterated Runge-Kutta methods --------*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PIRK methods (parallel iterated Runge-Kutta): fixed-point iteration of
/// an implicit collocation method's stage system,
///
///   K^(0)_i   = f(t + c_i h, y_n)
///   K^(m)_i   = f(t + c_i h, y_n + h sum_j a_ij K^(m-1)_j)
///   y_{n+1}   = y_n + h sum_i b_i K^(M)_i ,
///
/// the explicit ODE method class Offsite was built around (Korch/Rauber).
/// The convergence order is min(base order, M + 1).  All stages of one
/// corrector iteration are independent, which is what makes the method
/// "parallel" — and makes its sweeps ideal stencil fusion candidates.
///
/// Implementation variants mirror ExplicitRK: StageSeparate materializes
/// stage arguments, FusedArgument folds them into the RHS sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef YS_ODE_PIRK_H
#define YS_ODE_PIRK_H

#include "codegen/KernelConfig.h"
#include "ode/ButcherTableau.h"
#include "ode/ExplicitRK.h"
#include "ode/IVP.h"
#include "support/ThreadPool.h"

namespace ys {

/// Workspace: two stage-value banks (current and previous iteration),
/// plus the argument buffer, fused-sweep ring and RHS executor as in
/// RKWorkspace.
struct PIRKWorkspace {
  std::vector<Grid> KPrev;
  std::vector<Grid> KNext;
  Grid Arg;
  std::vector<double> Ring;
  std::unique_ptr<KernelExecutor> Rhs;
};

/// Fixed-step PIRK integrator.
class PIRKIntegrator {
public:
  /// \p Base is the (implicit) collocation tableau; \p Corrector the number
  /// of corrector iterations M >= 0.
  PIRKIntegrator(ButcherTableau Base, unsigned Corrector, RKVariant Variant,
                 KernelConfig Config = KernelConfig());

  const ButcherTableau &base() const { return TB; }
  unsigned correctorSteps() const { return M; }
  RKVariant variant() const { return Variant; }

  /// Theoretical convergence order: min(base order, M + 1).
  unsigned order() const;

  bool supports(const IVP &Problem) const;
  void prepareWorkspace(const IVP &Problem, PIRKWorkspace &WS) const;

  void step(const IVP &Problem, double T, double H, Grid &Y,
            PIRKWorkspace &WS, ThreadPool *Pool = nullptr) const;

  double integrate(const IVP &Problem, double T0, double H, int Steps,
                   Grid &Y, PIRKWorkspace &WS,
                   ThreadPool *Pool = nullptr) const;

  /// Sweep structure per step (for the Offsite cost model).
  RKStepStructure stepStructure(const IVP &Problem) const;

private:
  ButcherTableau TB;
  unsigned M;
  RKVariant Variant;
  KernelConfig Config;
};

} // namespace ys

#endif // YS_ODE_PIRK_H
