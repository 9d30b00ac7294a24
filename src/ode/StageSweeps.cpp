//===- ode/StageSweeps.cpp - Interior sweeps of the ODE integrators --------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/StageSweeps.h"

#include <algorithm>
#include <cmath>

using namespace ys;
using namespace ys::ode_detail;

namespace {

/// A TermList's base pointers and coefficients, for the inner loops.
struct TermPtrs {
  const double *Base[TermList::Capacity];
  double Coeff[TermList::Capacity];
  unsigned N;

  explicit TermPtrs(const TermList &L) : N(L.size()) {
    for (unsigned T = 0; T < N; ++T) {
      Base[T] = L.grid(T).data();
      Coeff[T] = L.coeff(T);
    }
  }

  /// sum_t Coeff_t * Term_t at linear index \p I, left-nested from 0.
  double sum(size_t I) const {
    double Acc = 0.0;
    for (unsigned T = 0; T < N; ++T)
      Acc += Coeff[T] * Base[T][I];
    return Acc;
  }
};

[[maybe_unused]] bool sameLayout(const Grid &A, const Grid &B) {
  return A.dims() == B.dims() && A.halo() == B.halo() && A.fold() == B.fold();
}

[[maybe_unused]] bool sameLayout(const Grid &A, const TermList &L) {
  for (unsigned T = 0; T < L.size(); ++T)
    if (!sameLayout(A, L.grid(T)))
      return false;
  return true;
}

/// Calls Fn(Index, Len) for every contiguous x-run of \p G's interior.
template <typename FnT> void forEachInteriorRun(const Grid &G, FnT &&Fn) {
  const GridDims &D = G.dims();
  for (long Z = 0; Z < D.Nz; ++Z)
    for (long Y = 0; Y < D.Ny; ++Y)
      G.forEachRowRun(0, D.Nx, Y, Z, [&](size_t I, long, long Len) {
        Fn(I, static_cast<size_t>(Len));
      });
}

} // namespace

void ode_detail::axpyInterior(const Grid &Y, const TermList &Terms, double H,
                              Grid &Out) {
  assert(sameLayout(Y, Terms) && sameLayout(Y, Out) && "layout mismatch");
  const TermPtrs T(Terms);
  const double *Yd = Y.data();
  double *Od = Out.data();
  forEachInteriorRun(Y, [&](size_t I, size_t Len) {
    for (size_t E = I; E < I + Len; ++E)
      Od[E] = Yd[E] + H * T.sum(E);
  });
}

double ode_detail::updateInterior(Grid &Y, const TermList &Terms,
                                  const TermList &ErrTerms, double H) {
  assert(sameLayout(Y, Terms) && sameLayout(Y, ErrTerms) &&
         "layout mismatch");
  const TermPtrs T(Terms), Err(ErrTerms);
  const bool WantErr = !ErrTerms.empty();
  double *Yd = Y.data();
  double MaxErr = 0.0;
  forEachInteriorRun(Y, [&](size_t I, size_t Len) {
    for (size_t E = I; E < I + Len; ++E) {
      Yd[E] += H * T.sum(E);
      if (WantErr)
        MaxErr = std::max(MaxErr, std::fabs(H * Err.sum(E)));
    }
  });
  return MaxErr;
}

void ode_detail::addPointwise(const IVP &Problem, const Grid &Y, Grid &Out) {
  assert(sameLayout(Y, Out) && "layout mismatch");
  const double *Yd = Y.data();
  double *Od = Out.data();
  forEachInteriorRun(Y, [&](size_t I, size_t Len) {
    for (size_t E = I; E < I + Len; ++E)
      Od[E] += Problem.pointwise(Yd[E]);
  });
}

void ode_detail::evalRHS(const IVP &Problem, const KernelExecutor *Exec,
                         double T, const Grid &Y, Grid &Out,
                         ThreadPool *Pool) {
  if (!Problem.hasStencilForm()) {
    Problem.evalRHS(T, Y, Out);
    return;
  }
  assert(Exec && "a stencil-form RHS runs through an executor");
  const Grid *In = &Y;
  Exec->runSweep(&In, 1, Out, Pool);
  if (Problem.hasPointwise())
    addPointwise(Problem, Y, Out);
}

void ode_detail::fusedStageSweep(const IVP &Problem, const Grid &Y,
                                 const TermList &Arg, double H, Grid &K,
                                 const TermList *Update, Grid *Next,
                                 std::vector<double> &Ring) {
  assert(Problem.hasStencilForm() && "fused sweeps need the stencil form");
  const StencilSpec &Spec = Problem.rhsStencil();
  const std::vector<StencilPoint> &Points = Spec.points();
  const unsigned NumPoints = Spec.numPoints();
  const bool Pointwise = Problem.hasPointwise();
  const GridDims &D = Y.dims();
  const int Radius = Spec.radius();
  const long Halo = Y.halo();
  assert(Radius <= Halo && "halo narrower than the stencil radius");
  assert(sameLayout(Y, Arg) && sameLayout(Y, K) && "layout mismatch");
  assert((!Update || (Next && sameLayout(Y, *Update) && sameLayout(Y, *Next)))
         && "layout mismatch");

  // Ring planes are scalar-layout (Nx + 2h) x (Ny + 2h), whatever Y's fold.
  const long RowLen = D.Nx + 2 * Halo;
  const size_t PlaneElems = static_cast<size_t>(RowLen) * (D.Ny + 2 * Halo);
  const long RingSize = 2 * Radius + 1;
  if (Ring.size() < RingSize * PlaneElems)
    Ring.resize(RingSize * PlaneElems);
  auto ringPlane = [&](long Z) {
    return Ring.data() +
           static_cast<size_t>((Z + Radius + RingSize) % RingSize) *
               PlaneElems;
  };

  const TermList NoTerms;
  const TermPtrs A(Arg), U(Update ? *Update : NoTerms);
  const double *Yd = Y.data();
  double *Kd = K.data();
  double *NextD = Update ? Next->data() : nullptr;

  // The stage argument of plane Zp, x/y halo included, into its ring slot.
  auto fillArgPlane = [&](long Zp) {
    double *Plane = ringPlane(Zp);
    for (long Yc = -Halo; Yc < D.Ny + Halo; ++Yc) {
      double *Row = Plane + (Yc + Halo) * RowLen + Halo;
      Y.forEachRowRun(-Halo, RowLen, Yc, Zp, [&](size_t I, long X, long Len) {
        for (long E = 0; E < Len; ++E)
          Row[X + E] = Yd[I + E] + H * A.sum(I + E);
      });
    }
  };

  for (long Zp = -Radius; Zp < Radius; ++Zp)
    fillArgPlane(Zp);

  const double *PointPlane[512];
  long PointOff[512];
  double Coeff[512];
  assert(NumPoints <= 512 && "point table overflow");
  for (long Zo = 0; Zo < D.Nz; ++Zo) {
    fillArgPlane(Zo + Radius);
    for (unsigned P = 0; P < NumPoints; ++P) {
      PointPlane[P] = ringPlane(Zo + Points[P].Dz);
      PointOff[P] = Points[P].Dy * RowLen + Points[P].Dx;
      Coeff[P] = Points[P].Coeff;
    }
    const double *Center = ringPlane(Zo);

    for (long Yc = 0; Yc < D.Ny; ++Yc) {
      const long PlaneRow = (Yc + Halo) * RowLen + Halo;
      Y.forEachRowRun(0, D.Nx, Yc, Zo, [&](size_t I, long X, long Len) {
        const long R0 = PlaneRow + X;
        for (long E = 0; E < Len; ++E) {
          double Acc = 0.0;
          for (unsigned P = 0; P < NumPoints; ++P)
            Acc += Coeff[P] * PointPlane[P][R0 + PointOff[P] + E];
          if (Pointwise)
            Acc += Problem.pointwise(Center[R0 + E]);
          Kd[I + E] = Acc;
          if (NextD)
            NextD[I + E] = Yd[I + E] + H * U.sum(I + E);
        }
      });
    }
  }
}
