//===- ode/PIRK.cpp - Parallel iterated Runge-Kutta methods ----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/PIRK.h"

#include "ode/AxpyLoops.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace ys;

PIRKIntegrator::PIRKIntegrator(ButcherTableau Base, unsigned Corrector,
                               RKVariant Variant, KernelConfig Config)
    : TB(std::move(Base)), M(Corrector), Variant(Variant), Config(Config) {
  assert(TB.checkConsistency().empty() && "inconsistent base tableau");
  assert(Variant != RKVariant::FusedUpdate &&
         "fused-update is not defined for PIRK (update needs K^(M) of all "
         "stages)");
}

unsigned PIRKIntegrator::order() const {
  return std::min(TB.Order, M + 1);
}

bool PIRKIntegrator::supports(const IVP &Problem) const {
  if (Variant == RKVariant::StageSeparate)
    return true;
  return Problem.hasStencilForm();
}

void PIRKIntegrator::prepareWorkspace(const IVP &Problem,
                                      PIRKWorkspace &WS) const {
  GridDims Dims = Problem.dims();
  int Halo = Problem.halo();
  Fold F = Config.VectorFold;
  auto needsRealloc = [&](const Grid &G) {
    return !(G.dims() == Dims) || G.halo() != Halo || !(G.fold() == F);
  };
  auto prepareBank = [&](std::vector<Grid> &Bank) {
    if (Bank.size() != TB.Stages ||
        (!Bank.empty() && needsRealloc(Bank.front()))) {
      Bank.clear();
      for (unsigned S = 0; S < TB.Stages; ++S)
        Bank.emplace_back(Dims, Halo, F);
    }
  };
  prepareBank(WS.KPrev);
  prepareBank(WS.KNext);
  if (needsRealloc(WS.Arg))
    WS.Arg = Grid(Dims, Halo, F);
}

void PIRKIntegrator::step(const IVP &Problem, double T, double H, Grid &Y,
                          PIRKWorkspace &WS, ThreadPool *Pool) const {
  const GridDims &D = Y.dims();
  unsigned S = TB.Stages;
  WS.Arg.copyHaloFrom(Y);

  // Predictor: K^(0)_i = f(t + c_i h, y_n).  The RHS of autonomous grid
  // IVPs is time-independent, but we evaluate per stage anyway to keep the
  // general contract.
  for (unsigned I = 0; I < S; ++I)
    ode_detail::evalRHSFast(Problem, Config, T + TB.c(I) * H, Y,
                            WS.KPrev[I], Pool);

  // Corrector iterations.
  for (unsigned Iter = 0; Iter < M; ++Iter) {
    for (unsigned I = 0; I < S; ++I) {
      ode_detail::TermList Terms;
      for (unsigned J = 0; J < S; ++J)
        if (TB.a(I, J) != 0.0)
          Terms.push_back({&WS.KPrev[J], TB.a(I, J)});

      if (Variant == RKVariant::StageSeparate) {
        ode_detail::axpyInterior(Y, Terms, H, WS.Arg);
        ode_detail::evalRHSFast(Problem, Config, T + TB.c(I) * H, WS.Arg,
                                WS.KNext[I], Pool);
        continue;
      }

      // Fused argument: rebuild the argument per stencil point.
      const StencilSpec &Spec = Problem.rhsStencil();
      const std::vector<StencilPoint> &Points = Spec.points();
      unsigned NumPoints = Spec.numPoints();
      bool Pointwise = Problem.hasPointwise();

      if (Y.hasScalarLayout()) {
        // Rolling-window fused kernel; see ExplicitRK.cpp for the scheme.
        int Radius = Spec.radius();
        int Halo = Y.halo();
        long PadX = Y.padX(), PadY = Y.padY();
        size_t PlaneElems = static_cast<size_t>(PadX) * PadY;
        unsigned RingSize = static_cast<unsigned>(2 * Radius + 1);
        std::vector<std::vector<double>> Ring(RingSize);
        for (auto &Plane : Ring)
          Plane.assign(PlaneElems, 0.0);

        size_t NT = Terms.size();
        const double *TBase[16];
        double TCoeff[16];
        assert(NT <= 16 && "stage term table overflow");
        for (size_t J = 0; J < NT; ++J) {
          TBase[J] = Terms[J].first->data();
          TCoeff[J] = Terms[J].second;
        }
        const double *Yd = Y.data();
        double *Ki = WS.KNext[I].data();

        auto fillArgPlane = [&](long Zp) {
          unsigned Slot =
              static_cast<unsigned>((Zp + Radius + RingSize) % RingSize);
          double *Dst = Ring[Slot].data();
          size_t SlabBase = static_cast<size_t>(Zp + Halo) * PlaneElems;
          for (size_t E = 0; E < PlaneElems; ++E) {
            double Acc = 0.0;
            for (size_t J = 0; J < NT; ++J)
              Acc += TCoeff[J] * TBase[J][SlabBase + E];
            Dst[E] = Yd[SlabBase + E] + H * Acc;
          }
        };

        for (long Zp = -Radius; Zp < Radius; ++Zp)
          fillArgPlane(Zp);

        for (long Zo = 0; Zo < D.Nz; ++Zo) {
          fillArgPlane(Zo + Radius);
          const double *PointPlane[512];
          long PointRowOff[512];
          double Coeff[512];
          assert(NumPoints <= 512 && "point table overflow");
          for (unsigned P = 0; P < NumPoints; ++P) {
            unsigned Slot = static_cast<unsigned>(
                (Zo + Points[P].Dz + Radius + RingSize) % RingSize);
            PointPlane[P] = Ring[Slot].data();
            PointRowOff[P] = Points[P].Dy * PadX + Points[P].Dx;
            Coeff[P] = Points[P].Coeff;
          }
          unsigned CenterSlot =
              static_cast<unsigned>((Zo + Radius + RingSize) % RingSize);
          const double *CenterPlane = Ring[CenterSlot].data();

          for (long Yc = 0; Yc < D.Ny; ++Yc) {
            size_t Row = Y.linearIndex(0, Yc, Zo);
            long PlaneRow = (Yc + Halo) * PadX + Halo;
            for (long X = 0; X < D.Nx; ++X) {
              double Acc = 0.0;
              for (unsigned P = 0; P < NumPoints; ++P)
                Acc +=
                    Coeff[P] * PointPlane[P][PlaneRow + PointRowOff[P] + X];
              if (Pointwise)
                Acc += Problem.pointwise(CenterPlane[PlaneRow + X]);
              Ki[Row + X] = Acc;
            }
          }
        }
        continue;
      }

      auto argAt = [&](long X, long Yc, long Z) {
        double Acc = 0.0;
        for (const auto &[G, Aij] : Terms)
          Acc += Aij * G->at(X, Yc, Z);
        return Y.at(X, Yc, Z) + H * Acc;
      };
      for (long Z = 0; Z < D.Nz; ++Z)
        for (long Yc = 0; Yc < D.Ny; ++Yc)
          for (long X = 0; X < D.Nx; ++X) {
            double Acc = 0.0;
            for (const StencilPoint &P : Points)
              Acc += P.Coeff * argAt(X + P.Dx, Yc + P.Dy, Z + P.Dz);
            if (Pointwise)
              Acc += Problem.pointwise(argAt(X, Yc, Z));
            WS.KNext[I].at(X, Yc, Z) = Acc;
          }
    }
    std::swap(WS.KPrev, WS.KNext);
  }

  // Update: y += h sum b_i K^(M)_i (the final values live in KPrev).
  ode_detail::TermList UpdateTerms;
  for (unsigned I = 0; I < S; ++I)
    if (TB.b(I) != 0.0)
      UpdateTerms.push_back({&WS.KPrev[I], TB.b(I)});
  ode_detail::updateInterior(Y, UpdateTerms, {}, H);
}

double PIRKIntegrator::integrate(const IVP &Problem, double T0, double H,
                                 int Steps, Grid &Y, PIRKWorkspace &WS,
                                 ThreadPool *Pool) const {
  prepareWorkspace(Problem, WS);
  double T = T0;
  for (int StepIdx = 0; StepIdx < Steps; ++StepIdx) {
    step(Problem, T, H, Y, WS, Pool);
    T = T0 + (StepIdx + 1) * H;
  }
  return T;
}

RKStepStructure PIRKIntegrator::stepStructure(const IVP &Problem) const {
  RKStepStructure St;
  const StencilSpec &Spec = Problem.rhsStencil();
  unsigned S = TB.Stages;
  unsigned RhsFlops = Spec.flopsPerLup();
  unsigned NnzA = TB.numNonzeroA();
  unsigned NnzPerRow = (NnzA + S - 1) / S; // Average; full rows for PIRK.

  for (unsigned I = 0; I < S; ++I) {
    RKStepStructure::Sweep Pred;
    Pred.What = format("predictor stage %u", I);
    Pred.StencilInputs = 1;
    Pred.FlopsPerLup = RhsFlops;
    Pred.IsRhs = true;
    St.Sweeps.push_back(Pred);
  }
  for (unsigned Iter = 0; Iter < M; ++Iter)
    for (unsigned I = 0; I < S; ++I) {
      if (Variant == RKVariant::StageSeparate) {
        RKStepStructure::Sweep Axpy;
        Axpy.What = format("axpy-arg it%u stage %u", Iter, I);
        Axpy.CenterInputs = NnzPerRow + 1;
        Axpy.FlopsPerLup = 2 * NnzPerRow;
        St.Sweeps.push_back(Axpy);
        RKStepStructure::Sweep Rhs;
        Rhs.What = format("rhs it%u stage %u", Iter, I);
        Rhs.StencilInputs = 1;
        Rhs.FlopsPerLup = RhsFlops;
        Rhs.IsRhs = true;
        St.Sweeps.push_back(Rhs);
      } else {
        // Rolling-window fused corrector sweep (see ExplicitRK.cpp).
        RKStepStructure::Sweep Fused;
        Fused.What = format("fused rhs it%u stage %u", Iter, I);
        Fused.StencilInputs = 1;
        Fused.CenterInputs = NnzPerRow;
        Fused.FlopsPerLup = RhsFlops + 2 * NnzPerRow;
        Fused.IsRhs = true;
        St.Sweeps.push_back(Fused);
      }
    }
  unsigned NnzB = 0;
  for (unsigned I = 0; I < S; ++I)
    if (TB.b(I) != 0.0)
      ++NnzB;
  RKStepStructure::Sweep Upd;
  Upd.What = "update";
  Upd.CenterInputs = NnzB + 1;
  Upd.FlopsPerLup = 2 * NnzB;
  St.Sweeps.push_back(Upd);
  St.GridsAllocated = 2 * S + 2;
  return St;
}
