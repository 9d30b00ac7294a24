//===- ode/IVP.h - Initial value problems ------------------------*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Initial value problems y' = f(t, y) whose right-hand sides are grid
/// operators — the workloads Offsite tunes explicit ODE methods for.  An
/// IVP exposes its structure to the tooling:
///
///  * stencil form f(y) = S(y) + g(y_center): a linear constant-coefficient
///    stencil plus an optional pointwise term.  RHS sweeps of such IVPs are
///    executable by KernelExecutor / fusable by the RK variants and
///    modelable by the ECM model;
///  * otherwise only the generic evalRHS is available (variant A), and
///    rhsStencil() serves purely as the performance-model proxy.
///
/// Provided problems: Heat2D/Heat3D (pure stencil), ReactionDiffusion3D
/// (stencil + nonlinear pointwise term), Advection3D (asymmetric upwind
/// stencil), and InverterChain (banded nonlinear chain, non-stencil).
///
//===----------------------------------------------------------------------===//

#ifndef YS_ODE_IVP_H
#define YS_ODE_IVP_H

#include "stencil/Grid.h"
#include "stencil/StencilSpec.h"

#include <memory>
#include <string>

namespace ys {

/// An initial value problem over a 3-D grid state.
class IVP {
public:
  virtual ~IVP();

  virtual std::string name() const = 0;
  virtual GridDims dims() const = 0;

  /// Halo width required by the RHS (>= stencil radius).
  virtual int halo() const;

  /// Fills \p Y with the initial condition (halo = boundary values).
  virtual void initialCondition(Grid &Y) const = 0;

  /// A stable step size for the provided dims (used by benchmarks).
  virtual double suggestedDt() const = 0;

  /// True if f(y) == rhsStencil()(y) + pointwise(y_center).
  virtual bool hasStencilForm() const { return true; }

  /// The linear stencil part (or, for non-stencil IVPs, a structural proxy
  /// used only by the performance model).
  virtual const StencilSpec &rhsStencil() const = 0;

  /// Pointwise term g(u) added to the stencil result.  Only meaningful
  /// when hasPointwise().
  virtual double pointwise(double U) const {
    (void)U;
    return 0.0;
  }
  virtual bool hasPointwise() const { return false; }

  /// Generic RHS evaluation Out = f(T, Y) over the interior.  The default
  /// implementation runs rhsStencil() through a KernelExecutor under the
  /// default KernelConfig (with Out's fold) and adds the pointwise term;
  /// non-stencil IVPs must override.
  virtual void evalRHS(double T, const Grid &Y, Grid &Out) const;
};

/// 2-D heat equation u' = alpha * Lap(u) on the unit square (Dirichlet 0).
class Heat2DIVP : public IVP {
public:
  Heat2DIVP(long N, double Alpha = 1.0);
  std::string name() const override { return "heat2d"; }
  GridDims dims() const override { return {N, N, 1}; }
  void initialCondition(Grid &Y) const override;
  double suggestedDt() const override;
  const StencilSpec &rhsStencil() const override { return Spec; }

  /// Exact solution of the *semi-discrete* system for the default initial
  /// condition (discrete sine mode), evaluated at time T.
  void exactSolution(double T, Grid &Y) const;

private:
  long N;
  double Alpha;
  double H; ///< Grid spacing 1/(N+1).
  StencilSpec Spec;
};

/// 3-D heat equation u' = alpha * Lap(u) on the unit cube (Dirichlet 0).
class Heat3DIVP : public IVP {
public:
  Heat3DIVP(long N, double Alpha = 1.0);
  std::string name() const override { return "heat3d"; }
  GridDims dims() const override { return {N, N, N}; }
  void initialCondition(Grid &Y) const override;
  double suggestedDt() const override;
  const StencilSpec &rhsStencil() const override { return Spec; }

  /// Exact semi-discrete solution for the default initial condition.
  void exactSolution(double T, Grid &Y) const;

private:
  long N;
  double Alpha;
  double H;
  StencilSpec Spec;
};

/// Reaction-diffusion u' = Lap(u) + u - u^3 (Allen-Cahn type):
/// stencil plus nonlinear pointwise term.
class ReactionDiffusion3DIVP : public IVP {
public:
  ReactionDiffusion3DIVP(long N, double Diffusion = 1.0);
  std::string name() const override { return "reaction-diffusion3d"; }
  GridDims dims() const override { return {N, N, N}; }
  void initialCondition(Grid &Y) const override;
  double suggestedDt() const override;
  const StencilSpec &rhsStencil() const override { return Spec; }
  bool hasPointwise() const override { return true; }
  double pointwise(double U) const override { return U - U * U * U; }

private:
  long N;
  double Diffusion;
  double H;
  StencilSpec Spec;
};

/// Linear advection u' = -(vx ux + vy uy + vz uz), first-order upwind.
class Advection3DIVP : public IVP {
public:
  Advection3DIVP(long N, double Vx = 1.0, double Vy = 0.5, double Vz = 0.25);
  std::string name() const override { return "advection3d"; }
  GridDims dims() const override { return {N, N, N}; }
  void initialCondition(Grid &Y) const override;
  double suggestedDt() const override;
  const StencilSpec &rhsStencil() const override { return Spec; }

private:
  long N;
  double Vx, Vy, Vz;
  double H;
  StencilSpec Spec;
};

/// Chain of N CMOS-style inverters, the classic non-stencil Offsite IVP:
///   y_0' = (uIn(t)   - y_0)/tau
///   y_i' = (uOp - y_i - g(y_{i-1}))/tau,  g(v) = beta * v^2 / (1 + v^2).
/// Banded (bandwidth 1) and nonlinear in the neighbor, so only the generic
/// RHS path applies; rhsStencil() is the model proxy.
class InverterChainIVP : public IVP {
public:
  explicit InverterChainIVP(long N);
  std::string name() const override { return "inverter-chain"; }
  GridDims dims() const override { return {N, 1, 1}; }
  int halo() const override { return 1; }
  void initialCondition(Grid &Y) const override;
  double suggestedDt() const override;
  bool hasStencilForm() const override { return false; }
  const StencilSpec &rhsStencil() const override { return ProxySpec; }
  void evalRHS(double T, const Grid &Y, Grid &Out) const override;

private:
  double uIn(double T) const;
  long N;
  double Tau = 1.0;
  double UOp = 5.0;
  double Beta = 4.0;
  StencilSpec ProxySpec;
};

/// Viscous Burgers equation u' = -u * (ux + uy + uz) + nu * Lap(u) with
/// central differences: the advection term multiplies the *center* value
/// into neighbor differences, which is outside the linear-stencil +
/// pointwise form — like InverterChain it exercises the generic RHS path,
/// but on a genuine 3-D stencil access pattern.
class Burgers3DIVP : public IVP {
public:
  Burgers3DIVP(long N, double Viscosity = 0.05);
  std::string name() const override { return "burgers3d"; }
  GridDims dims() const override { return {N, N, N}; }
  void initialCondition(Grid &Y) const override;
  double suggestedDt() const override;
  bool hasStencilForm() const override { return false; }
  const StencilSpec &rhsStencil() const override { return ProxySpec; }
  void evalRHS(double T, const Grid &Y, Grid &Out) const override;

private:
  long N;
  double Nu;
  double H;
  StencilSpec ProxySpec; ///< Model proxy: r1 star + advection flops.
};

/// All built-in IVPs at a benchmark-friendly size.
std::vector<std::unique_ptr<IVP>> allBuiltinIVPs(long N3d, long N1d);

} // namespace ys

#endif // YS_ODE_IVP_H
