//===- ode/ExplicitRK.cpp - Explicit Runge-Kutta integrator ----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/ExplicitRK.h"

#include "codegen/KernelExecutor.h"
#include "ode/AxpyLoops.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ys;

const char *ys::rkVariantName(RKVariant V) {
  switch (V) {
  case RKVariant::StageSeparate:
    return "stage-separate";
  case RKVariant::FusedArgument:
    return "fused-argument";
  case RKVariant::FusedUpdate:
    return "fused-update";
  }
  return "unknown";
}

ExplicitRKIntegrator::ExplicitRKIntegrator(ButcherTableau Tableau,
                                           RKVariant Variant,
                                           KernelConfig Config)
    : TB(std::move(Tableau)), Variant(Variant), Config(Config) {
  assert(TB.isExplicit() && "explicit integrator needs an explicit tableau");
  assert(TB.checkConsistency().empty() && "inconsistent tableau");
}

bool ExplicitRKIntegrator::supports(const IVP &Problem) const {
  if (Variant == RKVariant::StageSeparate)
    return true;
  return Problem.hasStencilForm();
}

void ExplicitRKIntegrator::prepareWorkspace(const IVP &Problem,
                                            RKWorkspace &WS) const {
  GridDims Dims = Problem.dims();
  int Halo = Problem.halo();
  Fold F = Config.VectorFold;
  auto needsRealloc = [&](const Grid &G) {
    return !(G.dims() == Dims) || G.halo() != Halo || !(G.fold() == F);
  };
  if (WS.K.size() != TB.Stages ||
      (!WS.K.empty() && needsRealloc(WS.K.front()))) {
    WS.K.clear();
    for (unsigned S = 0; S < TB.Stages; ++S)
      WS.K.emplace_back(Dims, Halo, F);
  }
  if (needsRealloc(WS.Arg))
    WS.Arg = Grid(Dims, Halo, F);
  if (needsRealloc(WS.Next))
    WS.Next = Grid(Dims, Halo, F);
}

void ode_detail::evalRHSFast(const IVP &Problem, const KernelConfig &Config,
                             double T, const Grid &Y, Grid &Out,
                             ThreadPool *Pool) {
  if (!Problem.hasStencilForm()) {
    Problem.evalRHS(T, Y, Out);
    return;
  }
  KernelExecutor Exec(Problem.rhsStencil(), Config);
  Exec.runSweep({&Y}, Out, Pool);
  if (!Problem.hasPointwise())
    return;
  const GridDims &D = Y.dims();
  for (long Z = 0; Z < D.Nz; ++Z)
    for (long Yc = 0; Yc < D.Ny; ++Yc)
      for (long X = 0; X < D.Nx; ++X)
        Out.at(X, Yc, Z) += Problem.pointwise(Y.at(X, Yc, Z));
}

void ExplicitRKIntegrator::stepStageSeparate(const IVP &Problem, double T,
                                             double H, Grid &Y,
                                             RKWorkspace &WS,
                                             ThreadPool *Pool) const {
  unsigned S = TB.Stages;
  WS.Arg.copyHaloFrom(Y);

  for (unsigned I = 0; I < S; ++I) {
    // Collect this stage's nonzero coefficients.
    ode_detail::TermList Terms;
    for (unsigned J = 0; J < I; ++J)
      if (TB.a(I, J) != 0.0)
        Terms.push_back({&WS.K[J], TB.a(I, J)});

    const Grid *ArgGrid = &Y;
    if (!Terms.empty()) {
      // Arg = Y + h * sum_j a_ij K_j (axpy sweep).
      ode_detail::axpyInterior(Y, Terms, H, WS.Arg);
      ArgGrid = &WS.Arg;
    }
    ode_detail::evalRHSFast(Problem, Config, T + TB.c(I) * H, *ArgGrid,
                            WS.K[I], Pool);
  }

  // Update sweep: Y += h * sum b_i K_i; embedded error alongside.
  bool Embedded = TB.hasEmbedded();
  ode_detail::TermList UpdateTerms, ErrTerms;
  for (unsigned I = 0; I < S; ++I) {
    if (TB.b(I) != 0.0)
      UpdateTerms.push_back({&WS.K[I], TB.b(I)});
    if (Embedded && TB.b(I) - TB.b2(I) != 0.0)
      ErrTerms.push_back({&WS.K[I], TB.b(I) - TB.b2(I)});
  }
  double MaxErr = ode_detail::updateInterior(Y, UpdateTerms, ErrTerms, H);
  LastErrorEstimate = Embedded ? MaxErr : 0.0;
}

void ExplicitRKIntegrator::stepFused(const IVP &Problem, double T, double H,
                                     Grid &Y, RKWorkspace &WS,
                                     ThreadPool *Pool, bool FuseUpdate) const {
  (void)T;
  (void)Pool;
  assert(Problem.hasStencilForm() && "fused variants need the stencil form");
  const StencilSpec &Spec = Problem.rhsStencil();
  const std::vector<StencilPoint> &Points = Spec.points();
  const GridDims &D = Y.dims();
  unsigned S = TB.Stages;
  unsigned NumPoints = Spec.numPoints();
  bool Pointwise = Problem.hasPointwise();
  if (FuseUpdate)
    WS.Next.copyHaloFrom(Y);

  bool FastPath = Y.hasScalarLayout();

  for (unsigned I = 0; I < S; ++I) {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J < I; ++J)
      if (TB.a(I, J) != 0.0)
        Terms.push_back({J, TB.a(I, J)});

    bool LastStage = I + 1 == S;
    bool DoUpdate = FuseUpdate && LastStage;

    if (FastPath) {
      // Rolling-window fused kernel (the shape of Offsite's generated
      // fused code): the stage argument Y + h*sum a_ij K_j is computed
      // once per cell into a ring of 2r+1 cache-resident planes; the RHS
      // stencil reads neighbors from the ring.  FP operation order per
      // value is identical to the stage-separate variant, so results are
      // bit-identical.
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
        TBase[J] = WS.K[Terms[J].first].data();
        TCoeff[J] = Terms[J].second;
      }
      const double *Yd = Y.data();
      double *Ki = WS.K[I].data();
      double *NextD = FuseUpdate ? WS.Next.data() : nullptr;
      const double *UBase[16];
      double UCoeff[16];
      size_t NU = 0;
      if (DoUpdate)
        for (unsigned B = 0; B < S; ++B)
          if (TB.b(B) != 0.0) {
            UBase[NU] = WS.K[B].data();
            UCoeff[NU] = TB.b(B);
            ++NU;
          }

      // Computes the argument plane for interior z-coordinate Zp into its
      // ring slot (whole padded plane, including x/y halo).
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
        // Per-point plane base pointers for this output plane.
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
              Acc += Coeff[P] * PointPlane[P][PlaneRow + PointRowOff[P] + X];
            if (Pointwise)
              Acc += Problem.pointwise(CenterPlane[PlaneRow + X]);
            size_t Idx = Row + X;
            Ki[Idx] = Acc;
            if (DoUpdate) {
              double Upd = 0.0;
              for (size_t U = 0; U < NU; ++U)
                Upd += UCoeff[U] * UBase[U][Idx];
              NextD[Idx] = Yd[Idx] + H * Upd;
            }
          }
        }
      }
      continue;
    }

    // Layout-generic path.  Stage argument value at a neighbor
    // coordinate, matching the axpy expression of the stage-separate
    // variant term by term.
    auto argAt = [&](long X, long Yc, long Z) {
      double Acc = 0.0;
      for (const auto &[J, Aij] : Terms)
        Acc += Aij * WS.K[J].at(X, Yc, Z);
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
          WS.K[I].at(X, Yc, Z) = Acc;
          if (DoUpdate) {
            double Upd = 0.0;
            for (unsigned B = 0; B < S; ++B)
              if (TB.b(B) != 0.0)
                Upd += TB.b(B) * WS.K[B].at(X, Yc, Z);
            WS.Next.at(X, Yc, Z) = Y.at(X, Yc, Z) + H * Upd;
          }
        }
  }

  if (FuseUpdate) {
    std::swap(Y, WS.Next);
    LastErrorEstimate = 0.0;
    return;
  }

  // Separate update sweep (FusedArgument).
  ode_detail::TermList UpdateTerms;
  for (unsigned I = 0; I < S; ++I)
    if (TB.b(I) != 0.0)
      UpdateTerms.push_back({&WS.K[I], TB.b(I)});
  ode_detail::updateInterior(Y, UpdateTerms, {}, H);
  LastErrorEstimate = 0.0;
}

void ExplicitRKIntegrator::step(const IVP &Problem, double T, double H,
                                Grid &Y, RKWorkspace &WS,
                                ThreadPool *Pool) const {
  assert(supports(Problem) && "variant unsupported for this IVP");
  assert(Y.dims() == Problem.dims() && "state dims mismatch");
  assert(WS.K.size() == TB.Stages && "workspace not prepared");
  assert(WS.K[0].fold() == Y.fold() && WS.K[0].halo() == Y.halo() &&
         "workspace geometry mismatch; call prepareWorkspace");
  switch (Variant) {
  case RKVariant::StageSeparate:
    stepStageSeparate(Problem, T, H, Y, WS, Pool);
    return;
  case RKVariant::FusedArgument:
    stepFused(Problem, T, H, Y, WS, Pool, /*FuseUpdate=*/false);
    return;
  case RKVariant::FusedUpdate:
    stepFused(Problem, T, H, Y, WS, Pool, /*FuseUpdate=*/true);
    return;
  }
}

double ExplicitRKIntegrator::integrate(const IVP &Problem, double T0,
                                       double H, int Steps, Grid &Y,
                                       RKWorkspace &WS,
                                       ThreadPool *Pool) const {
  prepareWorkspace(Problem, WS);
  double T = T0;
  for (int StepIdx = 0; StepIdx < Steps; ++StepIdx) {
    step(Problem, T, H, Y, WS, Pool);
    T = T0 + (StepIdx + 1) * H;
  }
  return T;
}

RKStepStructure ExplicitRKIntegrator::stepStructure(const IVP &Problem) const {
  RKStepStructure St;
  const StencilSpec &Spec = Problem.rhsStencil();
  unsigned S = TB.Stages;
  unsigned RhsFlops = Spec.flopsPerLup();

  auto nnzRow = [&](unsigned I) {
    unsigned N = 0;
    for (unsigned J = 0; J < I; ++J)
      if (TB.a(I, J) != 0.0)
        ++N;
    return N;
  };
  unsigned NnzB = 0;
  for (unsigned I = 0; I < S; ++I)
    if (TB.b(I) != 0.0)
      ++NnzB;

  for (unsigned I = 0; I < S; ++I) {
    unsigned Nnz = nnzRow(I);
    if (Variant == RKVariant::StageSeparate) {
      if (Nnz > 0) {
        // Arg = Y + h * sum a_ij K_j: center reads of Y and the K_j.
        RKStepStructure::Sweep Axpy;
        Axpy.What = format("axpy-arg stage %u", I);
        Axpy.CenterInputs = Nnz + 1;
        Axpy.FlopsPerLup = 2 * Nnz;
        St.Sweeps.push_back(Axpy);
      }
      RKStepStructure::Sweep Rhs;
      Rhs.What = format("rhs stage %u", I);
      Rhs.StencilInputs = 1;
      Rhs.FlopsPerLup = RhsFlops;
      Rhs.IsRhs = true;
      St.Sweeps.push_back(Rhs);
    } else {
      bool DoUpdate = Variant == RKVariant::FusedUpdate && I + 1 == S;
      // Rolling-window fused sweep: the argument is materialized once per
      // cell into a cache-resident plane ring, so the state carries the
      // stencil access pattern (the ring's plane-window demand) while the
      // stage grids stream once at the center.
      RKStepStructure::Sweep Fused;
      Fused.What = format("fused rhs stage %u", I);
      Fused.StencilInputs = 1;
      Fused.CenterInputs = Nnz;
      Fused.FlopsPerLup = RhsFlops + 2 * Nnz;
      Fused.IsRhs = true;
      if (DoUpdate) {
        // The update reads the b-weighted stage grids at the center;
        // stages already streaming for the argument (a_Ij != 0) and the
        // stage being produced add no new stream.
        for (unsigned B = 0; B + 1 < S; ++B)
          if (TB.b(B) != 0.0 && TB.a(I, B) == 0.0)
            ++Fused.CenterInputs;
        Fused.Outputs = 2; // K_last and the new state.
        Fused.FlopsPerLup += 2 * NnzB;
      }
      St.Sweeps.push_back(Fused);
    }
  }
  if (Variant != RKVariant::FusedUpdate) {
    RKStepStructure::Sweep Upd;
    Upd.What = "update";
    Upd.CenterInputs = NnzB + 1;
    Upd.FlopsPerLup = 2 * NnzB;
    St.Sweeps.push_back(Upd);
  }

  St.GridsAllocated = S + 2 + (Variant == RKVariant::FusedUpdate ? 1 : 0);
  return St;
}
