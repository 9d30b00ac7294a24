//===- ode/StageSweeps.h - Interior sweeps of the ODE integrators -*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every interior sweep the ODE integrators run besides the stencil RHS
/// itself, each written once: stage-argument axpy, state update (with the
/// embedded-error max), pointwise term, and the rolling-window fused stage
/// sweep that the fused-argument / fused-update variants of explicit RK
/// and PIRK share.
///
/// All grids a sweep touches share one layout (dims, halo and fold — the
/// integrators' prepareWorkspace() guarantees it), so a cell sits at the
/// same linear index in every grid.  Each sweep therefore walks the
/// contiguous x-runs of Grid::forEachRowRun() and does plain pointer
/// arithmetic inside a run, for every fold alike.  The floating-point
/// operation order per cell is fixed (left-nested sums in term order), so
/// the fused variants match the stage-separate variant bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef YS_ODE_STAGESWEEPS_H
#define YS_ODE_STAGESWEEPS_H

#include "codegen/KernelExecutor.h"
#include "ode/IVP.h"
#include "stencil/Grid.h"

#include <cassert>
#include <vector>

namespace ys {
namespace ode_detail {

/// A weighted list of same-layout grids, sum_t Coeff_t * Grid_t, held in a
/// fixed-capacity table so building one per stage never allocates.
class TermList {
public:
  static constexpr unsigned Capacity = 16;

  void add(const Grid &G, double Coeff) {
    assert(Size < Capacity && "term list exceeds its fixed capacity");
    Grids[Size] = &G;
    Coeffs[Size] = Coeff;
    ++Size;
  }
  unsigned size() const { return Size; }
  bool empty() const { return Size == 0; }
  const Grid &grid(unsigned T) const { return *Grids[T]; }
  double coeff(unsigned T) const { return Coeffs[T]; }

private:
  const Grid *Grids[Capacity] = {};
  double Coeffs[Capacity] = {};
  unsigned Size = 0;
};

/// Out = Y + H * sum_t Coeff_t * Term_t over the interior.
void axpyInterior(const Grid &Y, const TermList &Terms, double H, Grid &Out);

/// Y += H * sum_t Coeff_t * Term_t over the interior.  When \p ErrTerms is
/// nonempty, also returns max |H * sum ErrCoeff_t * ErrTerm_t| (the
/// embedded error estimate); otherwise returns 0.
double updateInterior(Grid &Y, const TermList &Terms,
                      const TermList &ErrTerms, double H);

/// Out += Problem.pointwise(Y) over the interior.
void addPointwise(const IVP &Problem, const Grid &Y, Grid &Out);

/// Out = f(T, Y): the RHS sweep of every integrator.  Stencil-form IVPs run
/// their stencil through \p Exec (built for Problem.rhsStencil() and Y's
/// fold) plus the pointwise term; other IVPs call Problem.evalRHS() and
/// \p Exec may be null.
void evalRHS(const IVP &Problem, const KernelExecutor *Exec, double T,
             const Grid &Y, Grid &Out, ThreadPool *Pool);

/// The rolling-window fused stage sweep (the shape of Offsite's generated
/// fused code): K = stencil(A) + pointwise(A) for the stage argument
/// A = Y + H * sum_j a_j K_j, which is computed once per cell into a ring
/// of 2r+1 planes of \p Ring; the stencil reads its neighbors from the
/// ring.  When \p Update is non-null, the same sweep also writes the
/// fused state update Next = Y + H * sum_i b_i K_i (K included, read after
/// it is written).  \p Ring is the caller's scratch for 2r+1 scalar-layout
/// planes of (Nx + 2*halo) x (Ny + 2*halo) cells: sized by the first sweep,
/// reused by every later one.
void fusedStageSweep(const IVP &Problem, const Grid &Y, const TermList &Arg,
                     double H, Grid &K, const TermList *Update, Grid *Next,
                     std::vector<double> &Ring);

} // namespace ode_detail
} // namespace ys

#endif // YS_ODE_STAGESWEEPS_H
