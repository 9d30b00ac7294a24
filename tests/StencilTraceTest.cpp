//===- tests/StencilTraceTest.cpp - trace replay tests ----------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cachesim/StencilTrace.h"

#include <gtest/gtest.h>

using namespace ys;

namespace {

CacheSimLevelConfig level(const char *Name, unsigned long long Size,
                          unsigned Assoc = 8) {
  CacheSimLevelConfig C;
  C.Name = Name;
  C.SizeBytes = Size;
  C.Associativity = Assoc;
  C.LineBytes = 64;
  return C;
}

/// A small three-level hierarchy for fast deterministic traces.
CacheHierarchySim smallHierarchy() {
  return CacheHierarchySim({level("L1", 16 * 1024),
                            level("L2", 128 * 1024),
                            level("L3", 1024 * 1024, 16)});
}

} // namespace

TEST(StencilTrace, StreamingHeatTrafficNearAnalytic) {
  // Grid far larger than all cache levels: per warm sweep memory traffic
  // should approach 24 B/LUP (8 load + 8 write-allocate + 8 writeback)
  // while rows still fit in some level (plane reuse in L3 here).
  GridDims Dims{96, 96, 48}; // 2 buffers x 3.4 MiB >> 1 MiB L3.
  StencilTraceRunner Runner(StencilSpec::heat3d(), Dims, KernelConfig());
  CacheHierarchySim Sim = smallHierarchy();
  TraceTraffic T = Runner.run(Sim, 3);
  double Mem = T.BytesPerLup.back();
  EXPECT_GT(Mem, 20.0);
  EXPECT_LT(Mem, 30.0);
}

TEST(StencilTrace, TrafficMonotoneAcrossBoundaries) {
  GridDims Dims{64, 64, 32};
  StencilTraceRunner Runner(StencilSpec::star3d(2), Dims, KernelConfig());
  CacheHierarchySim Sim = smallHierarchy();
  TraceTraffic T = Runner.run(Sim, 2);
  // Outer boundaries can never move more data than inner ones (inclusive
  // streaming workload).
  for (size_t I = 1; I < T.BytesPerLup.size(); ++I)
    EXPECT_LE(T.BytesPerLup[I], T.BytesPerLup[I - 1] + 1.0);
}

TEST(StencilTrace, CacheResidentGridHasNoMemoryTraffic) {
  GridDims Dims{16, 16, 8}; // 2 buffers x 40 KiB: fits L3 easily.
  StencilTraceRunner Runner(StencilSpec::heat3d(), Dims, KernelConfig());
  CacheHierarchySim Sim = smallHierarchy();
  TraceTraffic T = Runner.run(Sim, 6);
  // After the cold start, sweeps hit in cache; amortized memory traffic
  // falls well below the streaming 24 B/LUP.
  EXPECT_LT(T.BytesPerLup.back(), 8.0);
}

TEST(StencilTrace, BlockingReducesInnerTrafficForWideStencil) {
  // star3d r2 on a wide grid: unblocked, the 5 z-planes (655 KiB) overflow
  // the 128 KiB L2, leaving only row reuse there; y-blocking shrinks the
  // plane footprint (5 x 128 x (16+4) x 8 B = 100 KiB incl. halo rows) so
  // plane reuse returns to L2 and L2<->L3 traffic drops sharply.
  GridDims Dims{128, 128, 24};
  StencilSpec S = StencilSpec::star3d(2);

  KernelConfig Unblocked;
  CacheHierarchySim SimU = smallHierarchy();
  TraceTraffic TU = StencilTraceRunner(S, Dims, Unblocked).run(SimU, 2);

  KernelConfig Blocked;
  Blocked.Block.Y = 16;
  CacheHierarchySim SimB = smallHierarchy();
  TraceTraffic TB = StencilTraceRunner(S, Dims, Blocked).run(SimB, 2);

  EXPECT_LT(TB.BytesPerLup[1], TU.BytesPerLup[1] * 0.7)
      << "blocked=" << TB.BytesPerLup[1] << " unblocked="
      << TU.BytesPerLup[1];
}

TEST(StencilTrace, WavefrontCutsMemoryTraffic) {
  // Temporal blocking with depth 4: amortized memory traffic per LUP must
  // drop well below the per-sweep streaming traffic.
  GridDims Dims{64, 64, 64}; // 2 x 2 MiB buffers > 1 MiB L3.
  StencilSpec S = StencilSpec::heat3d();

  KernelConfig Plain;
  CacheHierarchySim SimP = smallHierarchy();
  TraceTraffic TP = StencilTraceRunner(S, Dims, Plain).run(SimP, 4);

  KernelConfig Wave;
  Wave.WavefrontDepth = 4;
  Wave.Block.Z = 4;
  CacheHierarchySim SimW = smallHierarchy();
  TraceTraffic TW = StencilTraceRunner(S, Dims, Wave).runTemporal(SimW);

  EXPECT_LT(TW.BytesPerLup.back(), TP.BytesPerLup.back() * 0.55)
      << "wavefront=" << TW.BytesPerLup.back()
      << " plain=" << TP.BytesPerLup.back();
}

TEST(StencilTrace, LupAccounting) {
  GridDims Dims{10, 10, 10};
  StencilTraceRunner Runner(StencilSpec::heat3d(), Dims, KernelConfig());
  EXPECT_EQ(Runner.lupsPerSweep(), 1000);
  CacheHierarchySim Sim = smallHierarchy();
  TraceTraffic T = Runner.run(Sim, 3);
  EXPECT_EQ(T.Lups, 3000ull);
}

TEST(StencilTrace, MultiInputGridsDoNotAlias) {
  StencilSpec S("two", {{0, 0, 0, 1.0, 0}, {0, 0, 0, 0.5, 1}});
  GridDims Dims{32, 32, 8};
  StencilTraceRunner Runner(S, Dims, KernelConfig());
  CacheHierarchySim Sim = smallHierarchy();
  TraceTraffic T = Runner.run(Sim, 1);
  // Cold traffic ~ 3 grids x footprint: 2 input loads + out WA + out WB
  // still resident.  At minimum both inputs must be loaded separately.
  double MemPerLup = T.BytesPerLup.back();
  EXPECT_GT(MemPerLup, 16.0);
}
