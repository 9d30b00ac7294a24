//===- cachesim/StencilTrace.h - Stencil address-trace replay ----*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays the address stream of a stencil sweep (or a temporally blocked
/// multi-sweep run) through the cache simulator in KernelExecutor's loop
/// order: plain sweeps walk the same (z, y, x) block nest, and temporal
/// macro steps replay the executor's own SchedulePlan slab list
/// (codegen/SchedulePlan.h) level slab by level slab.  Grids are laid
/// out synthetically — each grid starts at its own 1 GiB-aligned base
/// with the scalar row-major layout — so no real memory is allocated.
/// The resulting per-level traffic is the "measured" counterpart to the
/// ECM model's layer-condition prediction (the paper's LIKWID
/// validation).
///
//===----------------------------------------------------------------------===//

#ifndef YS_CACHESIM_STENCILTRACE_H
#define YS_CACHESIM_STENCILTRACE_H

#include "cachesim/CacheSim.h"
#include "codegen/KernelConfig.h"
#include "stencil/StencilSpec.h"

#include <optional>
#include <string>

namespace ys {

/// How a trace replay covers the iteration space.
///
///  * Full    — exact replay of every lattice update (bit-identical to the
///              historical simulator behavior).
///  * Sampled — replay only enough execution-order sample units (z-planes,
///              z-block rows, or (y,x) block columns, matching the loop
///              structure) to reach the steady state, then extrapolate the
///              per-boundary byte rates across the remaining iteration
///              space along the layer-condition staircase (E14).  Falls
///              back to exact replay when the regime classification is
///              ambiguous (TraceTraffic::FallbackReason says why).
///  * Auto    — alias for Sampled inside the runner; consumers (tuning
///              service, driver) use it to mean "sample when the plan says
///              it is both safe and worthwhile".
enum class SimMode { Full, Sampled, Auto };

/// "full" | "sampled" | "auto".
const char *simModeName(SimMode Mode);
std::optional<SimMode> parseSimMode(const std::string &Name);

/// Per-LUP traffic derived from a simulated run.
struct TraceTraffic {
  /// Bytes per lattice update crossing each boundary; index 0 == L1<->L2,
  /// last == memory.
  std::vector<double> BytesPerLup;
  unsigned long long Lups = 0;

  /// True when the numbers come from a sampled replay + extrapolation.
  bool Sampled = false;

  /// Lattice updates actually replayed through the simulator (== Lups for
  /// full replays; the sampled speedup is Lups / ReplayedLups).
  unsigned long long ReplayedLups = 0;

  /// Why a requested sampled replay fell back to exact simulation
  /// (empty when sampling ran or was never requested).
  std::string FallbackReason;
};

/// Replays stencil sweeps through a cache hierarchy.
class StencilTraceRunner {
public:
  /// \p Halo defaults to the stencil radius.
  StencilTraceRunner(StencilSpec Spec, GridDims Dims, KernelConfig Config,
                     int Halo = -1);

  /// Replays \p Sweeps full out-of-place sweeps (ping-ponging two buffers
  /// when the stencil has one input; distinct input grids otherwise) and
  /// returns per-boundary traffic.  The hierarchy starts cold; traffic is
  /// averaged over all sweeps, so pass Sweeps >= 2 for warm numbers when
  /// grids fit in a cache level.
  TraceTraffic run(CacheHierarchySim &Sim, int Sweeps = 1) const;

  /// Like run(), with an explicit coverage mode.  SimMode::Full is
  /// bit-identical to run(Sim, Sweeps); Sampled/Auto replay only the
  /// planSampled() prefix and extrapolate (the streaming regime makes
  /// sweeps independent, so one sampled sweep predicts them all), falling
  /// back to exact replay when the plan declines.
  TraceTraffic run(CacheHierarchySim &Sim, int Sweeps, SimMode Mode) const;

  /// Replays one temporal macro step (WavefrontDepth sweeps) under the
  /// configured schedule by walking the slab list buildSchedulePlan()
  /// gives KernelExecutor for the same geometry.  Falls back to
  /// run(Sim, 1) for non-temporal configs so callers can dispatch
  /// unconditionally.
  TraceTraffic runTemporal(CacheHierarchySim &Sim) const;

  /// How the iteration space decomposes into execution-order sample units.
  enum class SampleAxis {
    ZPlane, ///< Unblocked (or only x-blocked): unit = one z-plane.
    ZRow,   ///< z-blocked: unit = one z-block row (all (y,x) blocks of it).
    Column, ///< y/x-blocked, z unblocked: unit = one (y,x) block column.
  };

  /// The sampled-replay plan for one hierarchy: how many execution-order
  /// units to replay for cache warmup and for the steady-state
  /// measurement window, or why sampling must be declined.
  struct SamplePlan {
    bool UseSampling = false;
    std::string Reason; ///< Fallback reason when !UseSampling.
    SampleAxis Axis = SampleAxis::ZPlane;
    long UnitCount = 0;    ///< Units in one full sweep.
    long UnitLups = 0;     ///< Nominal LUPs per unit.
    long WarmupUnits = 0;  ///< Units replayed before the checkpoint.
    long MeasureUnits = 0; ///< Units in the measurement window.
    /// LUPs a sampled replay will push through the simulator.
    long replayLups() const {
      return (WarmupUnits + MeasureUnits) * UnitLups;
    }
  };

  /// Decides whether a sampled replay of this runner against \p Sim is
  /// trustworthy: the layer-condition regime must be unambiguous
  /// (classified with a machine model synthesized from the simulated
  /// levels) and the sweep must contain enough units to both warm the
  /// hierarchy and measure a steady window.  Pure planning — no replay.
  SamplePlan planSampled(const CacheHierarchySim &Sim) const;

  /// Total LUPs of one sweep.
  long lupsPerSweep() const { return Dims.lups(); }

private:
  uint64_t addrOf(unsigned GridId, long X, long Y, long Z) const;
  void traceRange(CacheHierarchySim &Sim, unsigned InGrid, unsigned OutGrid,
                  long Z0, long Z1, long Y0, long Y1, long X0,
                  long X1) const;
  /// Time level \p S of the two-buffer parity scheme over z in [Z0, Z1)
  /// (grid 0 holds even levels), blocked over (y, x) — the trace twin of
  /// KernelExecutor::runLevelSlab.
  void traceLevelSlab(CacheHierarchySim &Sim, int S, long Z0, long Z1,
                      const BlockSize &B) const;
  void traceBlockedSweep(CacheHierarchySim &Sim, unsigned InGridBase,
                         unsigned OutGrid) const;
  long traceUnits(CacheHierarchySim &Sim, unsigned InGridBase,
                  unsigned OutGrid, const SamplePlan &Plan, long UnitFrom,
                  long UnitTo) const;
  TraceTraffic runSampled(CacheHierarchySim &Sim, int Sweeps,
                          const SamplePlan &Plan) const;

  StencilSpec Spec;
  GridDims Dims;
  KernelConfig Config;
  int Halo;
  long PadX, PadY, PadZ;
};

} // namespace ys

#endif // YS_CACHESIM_STENCILTRACE_H
