//===- codegen/SchedulePlan.h - Temporal schedule slab lists -----*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single description of a temporal macro step: the ordered list of
/// level slabs {S, Z0, Z1} that computes Depth fused sweeps under one
/// schedule.  Every consumer walks the same list — KernelExecutor runs it,
/// StencilTraceRunner replays it through the cache simulator, and
/// SourceEmitter prints it as the static table its standalone driver
/// walks — so the executed, simulated, and emitted loop orders cannot
/// drift apart.
///
/// All schedules share the two-buffer parity scheme: level s lives in the
/// even buffer when s is even (level 0 is the input), so slab (s, z0, z1)
/// reads level s-1 from buffer (s-1)%2 and overwrites level s-2 in
/// buffer s%2.  A plan is race-free when, for every slab in list order,
/// level s-1 already covers [z0 - r, z1 + r) clipped to the domain: that
/// both satisfies the slab's reads and retires every reader of the level
/// s-2 planes it overwrites.  tests/SchedulePlanTest.cpp checks this (and
/// exactly-once coverage) mechanically for every schedule.
///
//===----------------------------------------------------------------------===//

#ifndef YS_CODEGEN_SCHEDULEPLAN_H
#define YS_CODEGEN_SCHEDULEPLAN_H

#include "codegen/KernelConfig.h"

#include <vector>

namespace ys {

/// Time level \p S (1..Depth) computed over z in [Z0, Z1).
struct LevelSlab {
  int S = 1;
  long Z0 = 0;
  long Z1 = 0;

  bool operator==(const LevelSlab &O) const {
    return S == O.S && Z0 == O.Z0 && Z1 == O.Z1;
  }
};

/// One macro step of a temporal schedule, plus the inputs it was built
/// from (the cache key of consumers that keep a plan per geometry).
struct SchedulePlan {
  Schedule Sched = Schedule::Wavefront;
  int Depth = 0;
  long Nz = 0;
  int Radius = 0;
  long Bz = 0;
  std::vector<LevelSlab> Slabs; ///< Execution order.

  /// True when this plan was built for exactly these inputs.
  bool matches(Schedule S, int D, long NzIn, int R, long BzIn) const {
    return !Slabs.empty() && Sched == S && Depth == D && Nz == NzIn &&
           Radius == R && Bz == BzIn;
  }
};

/// Builds the slab list of one macro step of \p Depth fused sweeps of a
/// radius-\p Radius stencil over \p Nz planes, with \p ResolvedBz the
/// z block size after BlockSize::resolved().  Radius 0 is treated as 1.
///
///  * Wavefront: per-level frontiers F[s] advance in Bz-plane slabs
///    (Bz raised to radius + 1 so the train progresses) while keeping
///    F[s] <= F[s-1] - r.
///  * Diamond: tiles of width W = max(Bz, 2*Depth*r).  Phase 1 runs each
///    tile's downward-sloping trapezoid (level s over [kW + s*r,
///    (k+1)W - s*r), outer tiles extended to the domain edge); phase 2
///    fills the diamond [b - s*r, b + s*r) around every inner tile
///    boundary b.  W >= 2*Depth*r keeps a boundary's reads inside the
///    finished trapezoids and its writes out of the next boundary's
///    reload band.  One tile degenerates to Depth plain sweeps.
///  * DeepTemporal: wave w advances level s on plane w - (s-1)*r, s
///    ascending — an AN5D-style minimal-skew per-plane pipeline whose
///    live window (about Depth*r + 2r planes) is independent of Bz.
///  * Sweep: Depth full-domain slabs, one level after another.
SchedulePlan buildSchedulePlan(Schedule Sched, int Depth, long Nz,
                               int Radius, long ResolvedBz);

} // namespace ys

#endif // YS_CODEGEN_SCHEDULEPLAN_H
