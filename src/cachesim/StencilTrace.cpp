//===- cachesim/StencilTrace.cpp - Stencil address-trace replay ------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cachesim/StencilTrace.h"

#include "codegen/SchedulePlan.h"
#include "ecm/LayerCondition.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace ys;

const char *ys::simModeName(SimMode Mode) {
  switch (Mode) {
  case SimMode::Full:
    return "full";
  case SimMode::Sampled:
    return "sampled";
  case SimMode::Auto:
    return "auto";
  }
  return "full";
}

std::optional<SimMode> ys::parseSimMode(const std::string &Name) {
  if (Name == "full")
    return SimMode::Full;
  if (Name == "sampled")
    return SimMode::Sampled;
  if (Name == "auto")
    return SimMode::Auto;
  return std::nullopt;
}

StencilTraceRunner::StencilTraceRunner(StencilSpec Spec, GridDims Dims,
                                       KernelConfig Config, int Halo)
    : Spec(std::move(Spec)), Dims(Dims), Config(Config),
      Halo(Halo < 0 ? this->Spec.radius() : Halo) {
  PadX = Dims.Nx + 2L * this->Halo;
  PadY = Dims.Ny + 2L * this->Halo;
  PadZ = Dims.Nz + 2L * this->Halo;
}

uint64_t StencilTraceRunner::addrOf(unsigned GridId, long X, long Y,
                                    long Z) const {
  // Each grid occupies its own 1 GiB window so grids never alias.
  uint64_t Base = static_cast<uint64_t>(GridId) << 30;
  long Linear = ((Z + Halo) * PadY + (Y + Halo)) * PadX + (X + Halo);
  assert(Linear >= 0 && "trace address underflow");
  return Base + static_cast<uint64_t>(Linear) * sizeof(double);
}

/// Per-LUP traffic of an exact replay of \p Lups updates.
static TraceTraffic exactTraffic(const CacheHierarchySim &Sim,
                                 unsigned long long Lups) {
  HierarchyTraffic T = Sim.traffic();
  TraceTraffic Out;
  Out.Lups = Lups;
  Out.ReplayedLups = Lups;
  for (unsigned long long Bytes : T.BoundaryBytes)
    Out.BytesPerLup.push_back(static_cast<double>(Bytes) /
                              static_cast<double>(Lups));
  return Out;
}

void StencilTraceRunner::traceRange(CacheHierarchySim &Sim,
                                    unsigned InGridBase, unsigned OutGrid,
                                    long Z0, long Z1, long Y0, long Y1,
                                    long X0, long X1) const {
  const std::vector<StencilPoint> &Points = Spec.points();
  for (long Z = Z0; Z < Z1; ++Z)
    for (long Y = Y0; Y < Y1; ++Y)
      for (long X = X0; X < X1; ++X) {
        for (const StencilPoint &P : Points)
          Sim.load(addrOf(InGridBase + P.GridIdx, X + P.Dx, Y + P.Dy,
                          Z + P.Dz));
        for (unsigned O = 0; O < std::max(1u, Spec.OutputGrids); ++O)
          Sim.store(addrOf(OutGrid + O, X, Y, Z));
      }
}

void StencilTraceRunner::traceBlockedSweep(CacheHierarchySim &Sim,
                                           unsigned InGridBase,
                                           unsigned OutGrid) const {
  BlockSize B = Config.Block.resolved(Dims);
  for (long Zb = 0; Zb < Dims.Nz; Zb += B.Z)
    for (long Yb = 0; Yb < Dims.Ny; Yb += B.Y)
      for (long Xb = 0; Xb < Dims.Nx; Xb += B.X)
        traceRange(Sim, InGridBase, OutGrid, Zb,
                   std::min(Zb + B.Z, Dims.Nz), Yb,
                   std::min(Yb + B.Y, Dims.Ny), Xb,
                   std::min(Xb + B.X, Dims.Nx));
}

TraceTraffic StencilTraceRunner::run(CacheHierarchySim &Sim,
                                     int Sweeps) const {
  assert(Sweeps >= 1 && "need at least one sweep");
  unsigned NumIn = Spec.numInputGrids();
  for (int S = 0; S < Sweeps; ++S) {
    if (NumIn == 1) {
      unsigned In = static_cast<unsigned>(S % 2);
      traceBlockedSweep(Sim, In, 1 - In);
    } else {
      traceBlockedSweep(Sim, 0, NumIn); // Fixed inputs, separate output.
    }
  }
  return exactTraffic(Sim, static_cast<unsigned long long>(Dims.lups()) *
                               static_cast<unsigned>(Sweeps));
}

StencilTraceRunner::SamplePlan
StencilTraceRunner::planSampled(const CacheHierarchySim &Sim) const {
  SamplePlan Plan;

  // Classify the layer-condition regime against a machine model
  // synthesized from the simulated levels.  SafetyFactor 1.0: the
  // simulator has exact capacities, the derating is for real hardware.
  MachineModel Synth;
  Synth.Name = "simulated-hierarchy";
  for (unsigned I = 0; I < Sim.numLevels(); ++I) {
    const CacheSimLevelConfig &C = Sim.level(I).config();
    CacheLevelModel L;
    L.Name = C.Name.empty() ? format("L%u", I + 1) : C.Name;
    L.SizeBytes = C.SizeBytes;
    L.Associativity = C.Associativity;
    L.LineBytes = C.LineBytes;
    Synth.Caches.push_back(L);
  }
  LayerConditionAnalysis LC(Synth, /*SafetyFactor=*/1.0);
  SimRegime Regime = LC.classifyForSampling(Spec, Dims, Config);
  if (Regime.Ambiguous) {
    Plan.Reason = Regime.Reason;
    return Plan;
  }

  // Execution-order sample units matching traceBlockedSweep's loop nest:
  // z-block rows when z is blocked, (y,x) block columns when only inner
  // dimensions are blocked, bare z-planes otherwise.
  BlockSize B = Config.Block.resolved(Dims);
  if (B.Z < Dims.Nz) {
    Plan.Axis = SampleAxis::ZRow;
    Plan.UnitCount = (Dims.Nz + B.Z - 1) / B.Z;
    Plan.UnitLups = B.Z * Dims.Ny * Dims.Nx;
  } else if (B.Y < Dims.Ny || B.X < Dims.Nx) {
    Plan.Axis = SampleAxis::Column;
    Plan.UnitCount =
        ((Dims.Ny + B.Y - 1) / B.Y) * ((Dims.Nx + B.X - 1) / B.X);
    Plan.UnitLups = Dims.Nz * B.Y * B.X;
  } else {
    Plan.Axis = SampleAxis::ZPlane;
    Plan.UnitCount = Dims.Nz;
    Plan.UnitLups = Dims.Ny * Dims.Nx;
  }

  // The warmup prefix must (a) stream enough data through the hierarchy to
  // reach fill/writeback steady state — cycle ~1.5x every simulated line —
  // and (b) span the stencil's reuse distance along the unit axis.  The
  // measurement window needs the reuse distance again so its rate is a
  // whole number of reuse periods.
  unsigned long long TotalCacheBytes = 0;
  for (unsigned I = 0; I < Sim.numLevels(); ++I)
    TotalCacheBytes += Sim.level(I).config().SizeBytes;
  unsigned Outs = std::max(1u, Spec.OutputGrids);
  double TouchedPerLup =
      static_cast<double>(Spec.numInputGrids() + Outs) * 8.0;
  long CapacityUnits = static_cast<long>(
      1.5 * static_cast<double>(TotalCacheBytes) /
          (static_cast<double>(Plan.UnitLups) * TouchedPerLup) +
      1.0);
  long R = std::max(1, Spec.radius());
  long ReuseUnits = 2;
  if (Plan.Axis == SampleAxis::ZPlane)
    ReuseUnits = 2 * R + 2;
  else if (Plan.Axis == SampleAxis::ZRow)
    ReuseUnits = (2 * R + 2 + B.Z - 1) / B.Z;
  Plan.WarmupUnits = std::max(CapacityUnits, ReuseUnits);
  Plan.MeasureUnits = std::max<long>(ReuseUnits, 2);

  // The replayed prefix must stay a small, interior part of the sweep:
  // if it covers half the units there is nothing left to extrapolate and
  // edge effects dominate.
  if (Plan.UnitCount < 2 * (Plan.WarmupUnits + Plan.MeasureUnits)) {
    Plan.Reason = format(
        "sweep has %ld sample units but warmup+measure needs %ld: too few "
        "for an interior steady-state window",
        Plan.UnitCount, Plan.WarmupUnits + Plan.MeasureUnits);
    return Plan;
  }
  Plan.UseSampling = true;
  return Plan;
}

long StencilTraceRunner::traceUnits(CacheHierarchySim &Sim,
                                    unsigned InGridBase, unsigned OutGrid,
                                    const SamplePlan &Plan, long UnitFrom,
                                    long UnitTo) const {
  BlockSize B = Config.Block.resolved(Dims);
  long Lups = 0;
  switch (Plan.Axis) {
  case SampleAxis::ZPlane: {
    long Z1 = std::min<long>(UnitTo, Dims.Nz);
    traceRange(Sim, InGridBase, OutGrid, UnitFrom, Z1, 0, Dims.Ny, 0,
               Dims.Nx);
    Lups = (Z1 - UnitFrom) * Dims.Ny * Dims.Nx;
    break;
  }
  case SampleAxis::ZRow: {
    for (long U = UnitFrom; U < UnitTo; ++U) {
      long Zb = U * B.Z;
      long Z1 = std::min(Zb + B.Z, Dims.Nz);
      if (Zb >= Z1)
        break;
      for (long Yb = 0; Yb < Dims.Ny; Yb += B.Y)
        for (long Xb = 0; Xb < Dims.Nx; Xb += B.X)
          traceRange(Sim, InGridBase, OutGrid, Zb, Z1, Yb,
                     std::min(Yb + B.Y, Dims.Ny), Xb,
                     std::min(Xb + B.X, Dims.Nx));
      Lups += (Z1 - Zb) * Dims.Ny * Dims.Nx;
    }
    break;
  }
  case SampleAxis::Column: {
    long NxBlocks = (Dims.Nx + B.X - 1) / B.X;
    for (long U = UnitFrom; U < UnitTo; ++U) {
      long Yb = (U / NxBlocks) * B.Y;
      long Xb = (U % NxBlocks) * B.X;
      if (Yb >= Dims.Ny)
        break;
      long Y1 = std::min(Yb + B.Y, Dims.Ny);
      long X1 = std::min(Xb + B.X, Dims.Nx);
      traceRange(Sim, InGridBase, OutGrid, 0, Dims.Nz, Yb, Y1, Xb, X1);
      Lups += Dims.Nz * (Y1 - Yb) * (X1 - Xb);
    }
    break;
  }
  }
  return Lups;
}

TraceTraffic StencilTraceRunner::runSampled(CacheHierarchySim &Sim,
                                            int Sweeps,
                                            const SamplePlan &Plan) const {
  unsigned NumIn = Spec.numInputGrids();
  unsigned InBase = 0;
  unsigned OutGrid = NumIn == 1 ? 1u : NumIn;

  // Replay one sweep's warmup prefix, checkpoint the counters, replay the
  // measurement window, and extrapolate each boundary's steady byte rate
  // across the unreplayed remainder.  One sweep suffices: planSampled()
  // admits only unambiguous streaming regimes, where consecutive sweeps
  // see no residual reuse and carry identical traffic.
  long WarmLups =
      traceUnits(Sim, InBase, OutGrid, Plan, 0, Plan.WarmupUnits);
  HierarchyTraffic T1 = Sim.traffic();
  long MeasLups =
      traceUnits(Sim, InBase, OutGrid, Plan, Plan.WarmupUnits,
                 Plan.WarmupUnits + Plan.MeasureUnits);
  HierarchyTraffic T2 = Sim.traffic();

  TraceTraffic Out;
  Out.Sampled = true;
  Out.Lups = static_cast<unsigned long long>(Dims.lups()) * Sweeps;
  Out.ReplayedLups = static_cast<unsigned long long>(WarmLups + MeasLups);
  double SweepLups = static_cast<double>(Dims.lups());
  double Remaining = SweepLups - static_cast<double>(WarmLups + MeasLups);
  for (size_t I = 0; I < T2.BoundaryBytes.size(); ++I) {
    double Observed = static_cast<double>(T2.BoundaryBytes[I]);
    double Window = Observed - static_cast<double>(T1.BoundaryBytes[I]);
    double Rate = MeasLups > 0 ? Window / static_cast<double>(MeasLups) : 0;
    Out.BytesPerLup.push_back((Observed + Rate * Remaining) / SweepLups);
  }
  return Out;
}

TraceTraffic StencilTraceRunner::run(CacheHierarchySim &Sim, int Sweeps,
                                     SimMode Mode) const {
  if (Mode == SimMode::Full)
    return run(Sim, Sweeps);
  SamplePlan Plan = planSampled(Sim);
  if (!Plan.UseSampling) {
    TraceTraffic Out = run(Sim, Sweeps);
    Out.FallbackReason = Plan.Reason;
    return Out;
  }
  return runSampled(Sim, Sweeps, Plan);
}

void StencilTraceRunner::traceLevelSlab(CacheHierarchySim &Sim, int S,
                                        long Z0, long Z1,
                                        const BlockSize &B) const {
  // Two-buffer parity: grid 0 holds even time levels, grid 1 odd ones, so
  // level S reads (S-1)'s buffer and writes its own.
  unsigned Src = (S - 1) % 2 == 0 ? 0u : 1u;
  unsigned Dst = 1u - Src;
  for (long Yb = 0; Yb < Dims.Ny; Yb += B.Y)
    for (long Xb = 0; Xb < Dims.Nx; Xb += B.X)
      traceRange(Sim, Src, Dst, Z0, Z1, Yb, std::min(Yb + B.Y, Dims.Ny),
                 Xb, std::min(Xb + B.X, Dims.Nx));
}

TraceTraffic StencilTraceRunner::runTemporal(CacheHierarchySim &Sim) const {
  if (!Config.isTemporal())
    return run(Sim, 1);
  assert(Spec.numInputGrids() == 1 &&
         "temporal trace requires a single-input stencil");
  BlockSize B = Config.Block.resolved(Dims);
  SchedulePlan Plan = buildSchedulePlan(Config.Sched, Config.WavefrontDepth,
                                        Dims.Nz, Spec.radius(), B.Z);
  for (const LevelSlab &L : Plan.Slabs)
    traceLevelSlab(Sim, L.S, L.Z0, L.Z1, B);

  return exactTraffic(Sim, static_cast<unsigned long long>(Dims.lups()) *
                               static_cast<unsigned>(Config.WavefrontDepth));
}
