//===- ode/ExplicitRK.cpp - Explicit Runge-Kutta integrator ----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/ExplicitRK.h"

#include "ode/StageSweeps.h"
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
  // Only the stage-separate variant evaluates the RHS through an executor.
  WS.Rhs = Variant == RKVariant::StageSeparate && Problem.hasStencilForm()
               ? std::make_unique<KernelExecutor>(Problem.rhsStencil(), Config)
               : nullptr;
}

void ExplicitRKIntegrator::stepStageSeparate(const IVP &Problem, double T,
                                             double H, Grid &Y,
                                             RKWorkspace &WS,
                                             ThreadPool *Pool) const {
  unsigned S = TB.Stages;
  WS.Arg.copyHaloFrom(Y);

  for (unsigned I = 0; I < S; ++I) {
    // Arg = Y + h * sum_j a_ij K_j (axpy sweep) when the row has terms.
    ode_detail::TermList Terms;
    for (unsigned J = 0; J < I; ++J)
      if (TB.a(I, J) != 0.0)
        Terms.add(WS.K[J], TB.a(I, J));
    const Grid *ArgGrid = &Y;
    if (!Terms.empty()) {
      ode_detail::axpyInterior(Y, Terms, H, WS.Arg);
      ArgGrid = &WS.Arg;
    }
    ode_detail::evalRHS(Problem, WS.Rhs.get(), T + TB.c(I) * H, *ArgGrid,
                        WS.K[I], Pool);
  }

  // Update sweep: Y += h * sum b_i K_i; embedded error alongside.
  bool Embedded = TB.hasEmbedded();
  ode_detail::TermList UpdateTerms, ErrTerms;
  for (unsigned I = 0; I < S; ++I) {
    if (TB.b(I) != 0.0)
      UpdateTerms.add(WS.K[I], TB.b(I));
    if (Embedded && TB.b(I) - TB.b2(I) != 0.0)
      ErrTerms.add(WS.K[I], TB.b(I) - TB.b2(I));
  }
  double MaxErr = ode_detail::updateInterior(Y, UpdateTerms, ErrTerms, H);
  LastErrorEstimate = Embedded ? MaxErr : 0.0;
}

void ExplicitRKIntegrator::stepFused(const IVP &Problem, double H, Grid &Y,
                                     RKWorkspace &WS, bool FuseUpdate) const {
  unsigned S = TB.Stages;
  ode_detail::TermList UpdateTerms;
  for (unsigned I = 0; I < S; ++I)
    if (TB.b(I) != 0.0)
      UpdateTerms.add(WS.K[I], TB.b(I));
  if (FuseUpdate)
    WS.Next.copyHaloFrom(Y);

  for (unsigned I = 0; I < S; ++I) {
    ode_detail::TermList Terms;
    for (unsigned J = 0; J < I; ++J)
      if (TB.a(I, J) != 0.0)
        Terms.add(WS.K[J], TB.a(I, J));
    bool DoUpdate = FuseUpdate && I + 1 == S;
    ode_detail::fusedStageSweep(Problem, Y, Terms, H, WS.K[I],
                                DoUpdate ? &UpdateTerms : nullptr, &WS.Next,
                                WS.Ring);
  }

  LastErrorEstimate = 0.0;
  if (FuseUpdate)
    std::swap(Y, WS.Next);
  else
    ode_detail::updateInterior(Y, UpdateTerms, {}, H);
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
    stepFused(Problem, H, Y, WS, /*FuseUpdate=*/false);
    return;
  case RKVariant::FusedUpdate:
    stepFused(Problem, H, Y, WS, /*FuseUpdate=*/true);
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
