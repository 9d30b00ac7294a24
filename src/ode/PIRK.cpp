//===- ode/PIRK.cpp - Parallel iterated Runge-Kutta methods ----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/PIRK.h"

#include "ode/StageSweeps.h"
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
  WS.Rhs = Problem.hasStencilForm()
               ? std::make_unique<KernelExecutor>(Problem.rhsStencil(), Config)
               : nullptr;
}

void PIRKIntegrator::step(const IVP &Problem, double T, double H, Grid &Y,
                          PIRKWorkspace &WS, ThreadPool *Pool) const {
  unsigned S = TB.Stages;
  WS.Arg.copyHaloFrom(Y);

  // Predictor: K^(0)_i = f(t + c_i h, y_n).  The RHS of autonomous grid
  // IVPs is time-independent, but we evaluate per stage anyway to keep the
  // general contract.
  for (unsigned I = 0; I < S; ++I)
    ode_detail::evalRHS(Problem, WS.Rhs.get(), T + TB.c(I) * H, Y,
                        WS.KPrev[I], Pool);

  // Corrector iterations.
  for (unsigned Iter = 0; Iter < M; ++Iter) {
    for (unsigned I = 0; I < S; ++I) {
      ode_detail::TermList Terms;
      for (unsigned J = 0; J < S; ++J)
        if (TB.a(I, J) != 0.0)
          Terms.add(WS.KPrev[J], TB.a(I, J));
      if (Variant == RKVariant::StageSeparate) {
        ode_detail::axpyInterior(Y, Terms, H, WS.Arg);
        ode_detail::evalRHS(Problem, WS.Rhs.get(), T + TB.c(I) * H, WS.Arg,
                            WS.KNext[I], Pool);
      } else {
        ode_detail::fusedStageSweep(Problem, Y, Terms, H, WS.KNext[I],
                                    nullptr, nullptr, WS.Ring);
      }
    }
    std::swap(WS.KPrev, WS.KNext);
  }

  // Update: y += h sum b_i K^(M)_i (the final values live in KPrev).
  ode_detail::TermList UpdateTerms;
  for (unsigned I = 0; I < S; ++I)
    if (TB.b(I) != 0.0)
      UpdateTerms.add(WS.KPrev[I], TB.b(I));
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
