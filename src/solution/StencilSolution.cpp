//===- solution/StencilSolution.cpp - Executable stencil solution ------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solution/StencilSolution.h"

#include "codegen/KernelExecutor.h"
#include "frontend/Parser.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace ys;

Expected<StencilSolution> StencilSolution::create(StencilBundle Bundle,
                                                  GridDims Dims,
                                                  KernelConfig Config,
                                                  bool EnableFusion) {
  std::string Err = Bundle.validate();
  if (!Err.empty())
    return Error::failure(Err);

  StencilSolution S;
  S.Bundle = std::move(Bundle);
  S.Dims = Dims;
  S.Config = Config;
  S.Halo = std::max(1, S.Bundle.maxRadius());
  for (unsigned G = 0; G < S.Bundle.numGrids(); ++G)
    S.Grids.push_back(
        std::make_unique<Grid>(Dims, S.Halo, Config.VectorFold));

  // Compile the plan: greedy maximal fusion groups in program order
  // (or one sweep per equation when fusion is disabled), each with the
  // equivalent multi-grid stencil for the model.
  std::vector<std::vector<unsigned>> Groups;
  if (EnableFusion) {
    Groups = S.Bundle.greedyFusionGroups();
  } else {
    for (unsigned Eq = 0; Eq < S.Bundle.numEquations(); ++Eq)
      Groups.push_back({Eq});
  }
  for (const std::vector<unsigned> &Group : Groups) {
    PlanSweep Sweep;
    Sweep.Equations = Group;

    // Merge the group's reads into one spec: dedupe (grid, offset) pairs
    // and renumber the grids actually read to a dense range.
    std::map<unsigned, unsigned> Renumber;
    std::map<std::tuple<unsigned, int, int, int>, double> Merged;
    unsigned Flops = 0;
    for (unsigned EqIdx : Group) {
      const StencilSpec &Spec = S.Bundle.equations()[EqIdx].Spec;
      Flops += Spec.flopsPerLup();
      for (const StencilPoint &P : Spec.points()) {
        if (!Renumber.count(P.GridIdx)) {
          unsigned Next = static_cast<unsigned>(Renumber.size());
          Renumber[P.GridIdx] = Next;
        }
        Merged[{Renumber[P.GridIdx], P.Dx, P.Dy, P.Dz}] += P.Coeff;
      }
    }
    std::vector<StencilPoint> Points;
    for (const auto &[Key, Coeff] : Merged) {
      auto [G, Dx, Dy, Dz] = Key;
      StencilPoint P;
      P.GridIdx = G;
      P.Dx = Dx;
      P.Dy = Dy;
      P.Dz = Dz;
      P.Coeff = Coeff == 0.0 ? 1.0 : Coeff;
      Points.push_back(P);
    }
    Sweep.ModelSpec = StencilSpec(
        format("%s.sweep%zu", S.Bundle.name().c_str(), S.Plan.size()),
        std::move(Points));
    Sweep.ModelSpec.OutputGrids = static_cast<unsigned>(Group.size());
    unsigned Linear = Sweep.ModelSpec.flopsPerLup();
    Sweep.ModelSpec.ExtraFlopsPerLup = Flops > Linear ? Flops - Linear : 0;
    S.Plan.push_back(std::move(Sweep));
  }
  return S;
}

Expected<StencilSolution> StencilSolution::fromDslSource(
    const std::string &Source, GridDims Dims, KernelConfig Config,
    bool EnableFusion) {
  auto DefOr = Parser::parseSingle(Source);
  if (!DefOr)
    return DefOr.takeError();
  return create(DefOr->Bundle, Dims, Config, EnableFusion);
}

Grid *StencilSolution::gridByName(const std::string &Name) {
  const std::vector<std::string> &Names = Bundle.gridNames();
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return Grids[I].get();
  return nullptr;
}

std::string StencilSolution::describePlan() const {
  std::string Out;
  for (size_t SweepIdx = 0; SweepIdx < Plan.size(); ++SweepIdx) {
    const PlanSweep &Sweep = Plan[SweepIdx];
    std::vector<std::string> Parts;
    for (unsigned EqIdx : Sweep.Equations)
      Parts.push_back(
          Bundle.gridNames()[Bundle.equations()[EqIdx].OutputGrid]);
    Out += format("sweep %zu: %s%s (%u input grids, %u flops/LUP)\n",
                  SweepIdx, Sweep.Equations.size() > 1 ? "fused " : "",
                  join(Parts, ", ").c_str(),
                  Sweep.ModelSpec.numInputGrids(),
                  Sweep.ModelSpec.flopsPerLup());
  }
  return Out;
}

void StencilSolution::executeSweep(const PlanSweep &Sweep,
                                   ThreadPool *Pool) {
  if (Sweep.Equations.size() == 1) {
    const BundleEquation &Eq = Bundle.equations()[Sweep.Equations[0]];
    std::vector<const Grid *> Inputs;
    for (const auto &G : Grids)
      Inputs.push_back(G.get());
    KernelExecutor Exec(Eq.Spec, Config);
    Exec.runSweep(Inputs, *Grids[Eq.OutputGrid], Pool);
    return;
  }

  // Fused group: evaluate each equation at each point, in group order.
  // Fusion legality guarantees later equations read earlier outputs only
  // at the center, which is already written.
  bool AllScalar = Config.VectorFold.isScalar();
  if (AllScalar) {
    // Pointer-based path: per-equation tables of (base, linear offset,
    // coeff); all grids share geometry.
    struct EqTables {
      std::vector<const double *> Base;
      std::vector<long> Off;
      std::vector<double> Coeff;
      double *Out;
    };
    std::vector<EqTables> Tables;
    const Grid &Geo = *Grids[0];
    for (unsigned EqIdx : Sweep.Equations) {
      const BundleEquation &Eq = Bundle.equations()[EqIdx];
      EqTables T;
      for (const StencilPoint &P : Eq.Spec.points()) {
        T.Base.push_back(Grids[P.GridIdx]->data());
        T.Off.push_back(Geo.scalarNeighborOffset(P.Dx, P.Dy, P.Dz));
        T.Coeff.push_back(P.Coeff);
      }
      T.Out = Grids[Eq.OutputGrid]->data();
      Tables.push_back(std::move(T));
    }
    // Row-wise, equation-major: in-group dependencies are center-only,
    // so completing each equation's full row before the next is legal and
    // keeps the inner x loops vectorizable.  The same center-only property
    // makes z-slices independent, so the outer loop parallelizes.
    auto SweepZRange = [&](long Z0, long Z1) {
      for (long Z = Z0; Z < Z1; ++Z)
        for (long Y = 0; Y < Dims.Ny; ++Y) {
          size_t Row = Geo.linearIndex(0, Y, Z);
          for (const EqTables &T : Tables) {
            size_t NumPoints = T.Off.size();
            for (long X = 0; X < Dims.Nx; ++X) {
              double Acc = 0.0;
              for (size_t P = 0; P < NumPoints; ++P)
                Acc += T.Coeff[P] * T.Base[P][Row + X + T.Off[P]];
              T.Out[Row + X] = Acc;
            }
          }
        }
    };
    unsigned Threads =
        Pool ? std::min(Config.Threads, Pool->numThreads()) : 1;
    if (Pool && Threads > 1)
      Pool->parallelForTiles(
          Dims.Nz, 1, [&](unsigned, long Z, long) { SweepZRange(Z, Z + 1); },
          Threads);
    else
      SweepZRange(0, Dims.Nz);
    return;
  }

  for (long Z = 0; Z < Dims.Nz; ++Z)
    for (long Y = 0; Y < Dims.Ny; ++Y)
      for (long X = 0; X < Dims.Nx; ++X)
        for (unsigned EqIdx : Sweep.Equations) {
          const BundleEquation &Eq = Bundle.equations()[EqIdx];
          double Acc = 0.0;
          for (const StencilPoint &P : Eq.Spec.points())
            Acc += P.Coeff *
                   Grids[P.GridIdx]->at(X + P.Dx, Y + P.Dy, Z + P.Dz);
          Grids[Eq.OutputGrid]->at(X, Y, Z) = Acc;
        }
}

void StencilSolution::run(ThreadPool *Pool) {
  for (const PlanSweep &Sweep : Plan)
    executeSweep(Sweep, Pool);
}

void StencilSolution::runSteps(int Steps, ThreadPool *Pool) {
  for (int S = 0; S < Steps; ++S)
    run(Pool);
}

double StencilSolution::predictSecondsPerStep(const ECMModel &Model,
                                              unsigned Cores) const {
  double Seconds = 0.0;
  for (const PlanSweep &Sweep : Plan) {
    ECMPrediction P =
        Model.predict(Sweep.ModelSpec, Dims, Config, std::max(1u, Cores));
    Seconds += Model.predictedSeconds(P, Dims, 1.0, Cores);
  }
  return Seconds;
}

double StencilSolution::checksum() const {
  double Sum = 0.0;
  for (const auto &G : Grids)
    Sum += G->interiorSum();
  return Sum;
}
