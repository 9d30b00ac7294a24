//===- tests/SchedulePlanTest.cpp - temporal schedule race-freedom ---------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Property sweep over buildSchedulePlan: for every schedule, depth,
/// radius, plane count, and z block, replays the slab list against a
/// per-level coverage map and checks the dependence arguments that make
/// the two-buffer parity scheme race-free:
///
///  * every (level, z) cell is written exactly once per macro step;
///  * when slab (s, z0, z1) runs, level s-1 already covers
///    [z0 - r, z1 + r) clipped to the domain (its reads are satisfied);
///  * no level s-2 plane that a still-pending level s-1 cell reads gets
///    overwritten — checked on the two simulated buffers, whose planes
///    record which level they hold: every read must find exactly level
///    s-1, not a level s+1 that already replaced it.
///
/// Labeled `schedule` (ctest -L schedule).
///
//===----------------------------------------------------------------------===//

#include "codegen/SchedulePlan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace ys;

namespace {

/// Returns "" when \p P is a race-free, exactly-once macro step of
/// \p Depth levels over \p Nz planes for radius \p R, else the first
/// violated property.
std::string checkPlan(const SchedulePlan &P, int Depth, long Nz, long R) {
  // Written[s][z]: times level s was computed on plane z (level 0 is the
  // input).  Holds[b][z]: level buffer b currently stores on plane z
  // (-1 = scratch contents, never a valid read).
  std::vector<std::vector<int>> Written(Depth + 1, std::vector<int>(Nz, 0));
  std::fill(Written[0].begin(), Written[0].end(), 1);
  std::vector<std::vector<int>> Holds = {std::vector<int>(Nz, 0),
                                         std::vector<int>(Nz, -1)};
  for (const LevelSlab &L : P.Slabs) {
    std::string Where = "slab {" + std::to_string(L.S) + ", " +
                        std::to_string(L.Z0) + ", " + std::to_string(L.Z1) +
                        "}: ";
    if (L.S < 1 || L.S > Depth || L.Z0 < 0 || L.Z1 > Nz || L.Z0 >= L.Z1)
      return Where + "out of range";
    long RLo = std::max(0L, L.Z0 - R), RHi = std::min(Nz, L.Z1 + R);
    // Reads: level s-1 covers the slab's stencil footprint, and the
    // source buffer still holds exactly that level there.
    for (long Z = RLo; Z < RHi; ++Z) {
      if (!Written[L.S - 1][Z])
        return Where + "reads level " + std::to_string(L.S - 1) +
               " plane " + std::to_string(Z) + " before it is computed";
      if (Holds[(L.S - 1) % 2][Z] != L.S - 1)
        return Where + "reads plane " + std::to_string(Z) +
               " after level " + std::to_string(Holds[(L.S - 1) % 2][Z]) +
               " overwrote level " + std::to_string(L.S - 1);
    }
    for (long Z = L.Z0; Z < L.Z1; ++Z) {
      if (++Written[L.S][Z] != 1)
        return Where + "writes plane " + std::to_string(Z) + " twice";
      Holds[L.S % 2][Z] = L.S;
    }
  }
  for (int S = 1; S <= Depth; ++S)
    for (long Z = 0; Z < Nz; ++Z)
      if (Written[S][Z] != 1)
        return "level " + std::to_string(S) + " plane " + std::to_string(Z) +
               " never computed";
  return "";
}

} // namespace

TEST(SchedulePlan, EveryScheduleIsRaceFreeAndExactlyOnce) {
  unsigned Checked = 0;
  for (Schedule Sched : {Schedule::Sweep, Schedule::Wavefront,
                         Schedule::Diamond, Schedule::DeepTemporal})
    for (int Depth : {2, 3, 5, 8})
      for (int R : {1, 2, 3})
        for (long Nz : {1L, static_cast<long>(R) + 1, 7L, 64L})
          for (long Bz : {Nz, 1L, 4L, Nz + 3}) {
            SchedulePlan P = buildSchedulePlan(Sched, Depth, Nz, R, Bz);
            EXPECT_EQ(checkPlan(P, Depth, Nz, R), "")
                << scheduleName(Sched) << " depth " << Depth << " radius "
                << R << " Nz " << Nz << " Bz " << Bz;
            EXPECT_TRUE(P.matches(Sched, Depth, Nz, R, Bz));
            ++Checked;
          }
  EXPECT_EQ(Checked, 4u * 4u * 3u * 4u * 4u);
}

TEST(SchedulePlan, CheckerCatchesBrokenOrders) {
  // The property check must reject the orders it exists to forbid.
  SchedulePlan P = buildSchedulePlan(Schedule::Wavefront, 2, 8, 1, 4);
  SchedulePlan Early = P; // Level 2 before level 1 finished its reads.
  Early.Slabs = {{1, 0, 4}, {2, 0, 4}, {1, 4, 8}, {2, 4, 8}};
  EXPECT_NE(checkPlan(Early, 2, 8, 1), "");
  SchedulePlan Twice = P;
  Twice.Slabs.push_back({1, 0, 1});
  EXPECT_NE(checkPlan(Twice, 2, 8, 1), "");
  SchedulePlan Missing = P;
  Missing.Slabs.pop_back();
  EXPECT_NE(checkPlan(Missing, 2, 8, 1), "");
  // A level-2 slab re-run after level 3 replaced the level-1 planes it
  // reads.
  SchedulePlan Clobber = buildSchedulePlan(Schedule::Wavefront, 3, 8, 1, 8);
  Clobber.Slabs.push_back({2, 0, 1});
  EXPECT_NE(checkPlan(Clobber, 3, 8, 1).find("overwrote level 1"),
            std::string::npos);
}

TEST(SchedulePlan, DegenerateShapes) {
  // One diamond tile (W >= Nz) is Depth plain sweeps.
  EXPECT_EQ(buildSchedulePlan(Schedule::Diamond, 3, 10, 1, 10).Slabs,
            (std::vector<LevelSlab>{{1, 0, 10}, {2, 0, 10}, {3, 0, 10}}));
  // A whole-Nz wavefront block runs each level as one slab.
  EXPECT_EQ(buildSchedulePlan(Schedule::Wavefront, 2, 6, 1, 6).Slabs,
            (std::vector<LevelSlab>{{1, 0, 6}, {2, 0, 6}}));
  // Deep-temporal is per plane whatever the block, skewed by r.
  std::vector<LevelSlab> Deep =
      buildSchedulePlan(Schedule::DeepTemporal, 2, 3, 1, 3).Slabs;
  EXPECT_EQ(Deep, (std::vector<LevelSlab>{
                      {1, 0, 1}, {1, 1, 2}, {2, 0, 1}, {1, 2, 3}, {2, 1, 2},
                      {2, 2, 3}}));
  // Radius 0 behaves like radius 1.
  EXPECT_EQ(buildSchedulePlan(Schedule::Wavefront, 2, 8, 0, 1).Slabs,
            buildSchedulePlan(Schedule::Wavefront, 2, 8, 1, 1).Slabs);
}
