//===- codegen/SchedulePlan.cpp - Temporal schedule slab lists -------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/SchedulePlan.h"

#include <algorithm>
#include <cassert>

using namespace ys;

SchedulePlan ys::buildSchedulePlan(Schedule Sched, int Depth, long Nz,
                                   int Radius, long ResolvedBz) {
  assert(Depth >= 1 && Nz >= 1 && ResolvedBz >= 1 &&
         "schedule plan needs a non-empty domain and depth");
  SchedulePlan P;
  P.Sched = Sched;
  P.Depth = Depth;
  P.Nz = Nz;
  P.Radius = Radius;
  P.Bz = ResolvedBz;
  const long R = std::max(1, Radius);
  auto Add = [&](int S, long Z0, long Z1) {
    if (Z1 > Z0)
      P.Slabs.push_back({S, Z0, Z1});
  };

  switch (Sched) {
  case Schedule::Sweep:
    for (int S = 1; S <= Depth; ++S)
      Add(S, 0, Nz);
    break;

  case Schedule::Wavefront: {
    const long Bz = std::max(ResolvedBz, R + 1); // Progress needs Bz > r.
    std::vector<long> Frontier(static_cast<size_t>(Depth) + 1, 0);
    Frontier[0] = Nz;
    while (Frontier[Depth] < Nz) {
      bool Progressed = false;
      for (int S = 1; S <= Depth; ++S) {
        long Cap = Frontier[S - 1] >= Nz ? Nz : Frontier[S - 1] - R;
        long Target = std::min(Cap, Frontier[S] + Bz);
        if (Target > Frontier[S]) {
          Add(S, Frontier[S], Target);
          Frontier[S] = Target;
          Progressed = true;
        }
      }
      assert(Progressed && "wavefront stalled");
      (void)Progressed;
    }
    break;
  }

  case Schedule::Diamond: {
    const long W = std::max(ResolvedBz, 2 * Depth * R);
    const long NumTiles = (Nz + W - 1) / W;
    for (long K = 0; K < NumTiles; ++K) // Phase 1: independent trapezoids.
      for (int S = 1; S <= Depth; ++S)
        Add(S, K == 0 ? 0 : K * W + S * R,
            K == NumTiles - 1 ? Nz : (K + 1) * W - S * R);
    for (long K = 0; K + 1 < NumTiles; ++K) { // Phase 2: boundary diamonds.
      const long Boundary = (K + 1) * W;
      for (int S = 1; S <= Depth; ++S)
        Add(S, std::max(0L, Boundary - S * R),
            std::min(Nz, Boundary + S * R));
    }
    break;
  }

  case Schedule::DeepTemporal: {
    const long LastWave = Nz - 1 + (Depth - 1) * R;
    for (long Wave = 0; Wave <= LastWave; ++Wave)
      for (int S = 1; S <= Depth; ++S) {
        long Z = Wave - (S - 1) * R;
        if (Z >= 0 && Z < Nz)
          Add(S, Z, Z + 1);
      }
    break;
  }
  }
  return P;
}
