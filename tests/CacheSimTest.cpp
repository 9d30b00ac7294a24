//===- tests/CacheSimTest.cpp - cache simulator tests -----------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cachesim/CacheSim.h"
#include "cachesim/StencilTrace.h"

#include <cmath>

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

} // namespace

TEST(CacheLevelSim, ColdMissThenHit) {
  CacheLevelSim L(level("L1", 32 * 1024));
  EXPECT_FALSE(L.access(100, false));
  bool HasEvict = false;
  uint64_t Evicted = 0;
  L.insert(100, false, HasEvict, Evicted);
  EXPECT_FALSE(HasEvict);
  EXPECT_TRUE(L.access(100, false));
  EXPECT_EQ(L.stats().Hits, 1u);
  EXPECT_EQ(L.stats().Misses, 1u);
}

TEST(CacheLevelSim, LruEvictsOldest) {
  // 1 set x 2 ways: size = 2 lines, assoc 2.
  CacheLevelSim L(level("tiny", 128, 2));
  ASSERT_EQ(L.numSets(), 1u);
  bool HasEvict;
  uint64_t Evicted;
  L.insert(1, false, HasEvict, Evicted);
  L.insert(2, false, HasEvict, Evicted);
  EXPECT_TRUE(L.access(1, false)); // 1 becomes MRU.
  L.insert(3, false, HasEvict, Evicted); // Evicts 2 (LRU).
  EXPECT_TRUE(L.access(1, false));
  EXPECT_TRUE(L.access(3, false));
  EXPECT_FALSE(L.access(2, false));
}

TEST(CacheLevelSim, DirtyEvictionReported) {
  CacheLevelSim L(level("tiny", 128, 2));
  bool HasEvict;
  uint64_t Evicted;
  L.insert(1, /*Dirty=*/true, HasEvict, Evicted);
  L.insert(2, false, HasEvict, Evicted);
  L.insert(3, false, HasEvict, Evicted); // Evicts dirty line 1.
  EXPECT_TRUE(HasEvict);
  EXPECT_EQ(Evicted, 1u);
  EXPECT_EQ(L.stats().WritebackLines, 1u);
}

TEST(CacheLevelSim, InsertRefreshesExistingLine) {
  CacheLevelSim L(level("tiny", 128, 2));
  bool HasEvict;
  uint64_t Evicted;
  L.insert(1, false, HasEvict, Evicted);
  L.insert(2, false, HasEvict, Evicted);
  L.insert(1, true, HasEvict, Evicted); // Refresh: 1 becomes MRU + dirty.
  EXPECT_FALSE(HasEvict);
  L.insert(3, false, HasEvict, Evicted); // Should evict 2 (LRU), not 1.
  EXPECT_TRUE(L.access(1, false));
  EXPECT_FALSE(L.access(2, false));
}

TEST(CacheLevelSim, MarkDirtyAndInvalidate) {
  CacheLevelSim L(level("L", 1024));
  bool HasEvict;
  uint64_t Evicted;
  EXPECT_FALSE(L.markDirtyIfPresent(5));
  L.insert(5, false, HasEvict, Evicted);
  EXPECT_TRUE(L.markDirtyIfPresent(5));
  L.invalidate(5);
  EXPECT_FALSE(L.access(5, false));
}

TEST(CacheHierarchySim, SequentialStreamTrafficMatchesFootprint) {
  // Stream 1 MiB through a 32 KiB / 256 KiB hierarchy: every boundary sees
  // the full footprint once (cold).
  CacheHierarchySim Sim({level("L1", 32 * 1024), level("L2", 256 * 1024)});
  const unsigned N = 1 << 17; // 128K doubles = 1 MiB.
  for (unsigned I = 0; I < N; ++I)
    Sim.load(static_cast<uint64_t>(I) * 8);
  HierarchyTraffic T = Sim.traffic();
  EXPECT_EQ(T.BoundaryBytes[0], N * 8ull);
  EXPECT_EQ(T.BoundaryBytes[1], N * 8ull);
  EXPECT_EQ(T.MemStoreBytes, 0ull);
}

TEST(CacheHierarchySim, RepeatedSmallWorkingSetStaysInL1) {
  CacheHierarchySim Sim({level("L1", 32 * 1024), level("L2", 256 * 1024)});
  const unsigned N = 1024; // 8 KiB working set.
  for (int Round = 0; Round < 10; ++Round)
    for (unsigned I = 0; I < N; ++I)
      Sim.load(static_cast<uint64_t>(I) * 8);
  HierarchyTraffic T = Sim.traffic();
  // Only the cold fill crosses the boundaries.
  EXPECT_EQ(T.BoundaryBytes[0], N * 8ull);
  EXPECT_EQ(T.BoundaryBytes[1], N * 8ull);
  // 10 rounds x 1024 accesses, 1 miss per line (8 doubles/line).
  EXPECT_EQ(Sim.level(0).stats().Hits, 10 * N - N / 8);
}

TEST(CacheHierarchySim, MediumWorkingSetServedByL2) {
  CacheHierarchySim Sim({level("L1", 32 * 1024), level("L2", 256 * 1024)});
  const unsigned N = 16 * 1024; // 128 KiB: fits L2, not L1.
  for (int Round = 0; Round < 4; ++Round)
    for (unsigned I = 0; I < N; ++I)
      Sim.load(static_cast<uint64_t>(I) * 8);
  HierarchyTraffic T = Sim.traffic();
  // Memory sees only the cold fill; L1<->L2 sees it every round.
  EXPECT_EQ(T.BoundaryBytes[1], N * 8ull);
  EXPECT_EQ(T.BoundaryBytes[0], 4ull * N * 8);
}

TEST(CacheHierarchySim, WriteAllocateLoadsLine) {
  CacheHierarchySim Sim({level("L1", 32 * 1024)});
  Sim.store(0);
  HierarchyTraffic T = Sim.traffic();
  // The store missed: one line loaded (write-allocate), nothing written
  // back yet (line still resident and dirty).
  EXPECT_EQ(T.MemLoadBytes, 64ull);
  EXPECT_EQ(T.MemStoreBytes, 0ull);
}

TEST(CacheHierarchySim, DirtyLinesWrittenBackOnEviction) {
  // Write a 64 KiB region through a 32 KiB L1: first half gets evicted
  // dirty while the second half streams in.
  CacheHierarchySim Sim({level("L1", 32 * 1024)});
  const unsigned N = 8192; // 64 KiB of doubles.
  for (unsigned I = 0; I < N; ++I)
    Sim.store(static_cast<uint64_t>(I) * 8);
  HierarchyTraffic T = Sim.traffic();
  EXPECT_EQ(T.MemLoadBytes, N * 8ull); // Write-allocates.
  // At least half the footprint must have been written back already.
  EXPECT_GE(T.MemStoreBytes, N * 8ull / 2);
}

TEST(CacheHierarchySim, MultiLineAccessTouchesBothLines) {
  CacheHierarchySim Sim({level("L1", 32 * 1024)});
  Sim.access(60, 8, false); // Straddles lines 0 and 1.
  EXPECT_EQ(Sim.level(0).stats().Misses, 2u);
}

TEST(CacheHierarchySim, FromMachinePerCoreShare) {
  MachineModel M = MachineModel::cascadeLakeSP();
  CacheHierarchySim Full = CacheHierarchySim::fromMachine(M, false);
  CacheHierarchySim Share = CacheHierarchySim::fromMachine(M, true);
  EXPECT_EQ(Full.level(2).config().SizeBytes, M.level(2).SizeBytes);
  EXPECT_EQ(Share.level(2).config().SizeBytes,
            M.level(2).SizeBytes / M.level(2).SharingCores);
  // Private levels unchanged.
  EXPECT_EQ(Share.level(0).config().SizeBytes, M.level(0).SizeBytes);
}

TEST(CacheHierarchySim, ResetClearsState) {
  CacheHierarchySim Sim({level("L1", 1024)});
  Sim.store(0);
  Sim.reset();
  HierarchyTraffic T = Sim.traffic();
  EXPECT_EQ(T.BoundaryBytes[0], 0ull);
  EXPECT_EQ(Sim.level(0).stats().Accesses, 0ull);
}

TEST(CacheHierarchySim, InclusiveFillPopulatesInnerLevels) {
  CacheHierarchySim Sim({level("L1", 32 * 1024), level("L2", 256 * 1024)});
  Sim.load(0);
  // Second access hits L1 directly.
  Sim.load(8);
  EXPECT_EQ(Sim.level(0).stats().Hits, 1u);
  EXPECT_EQ(Sim.level(1).stats().Accesses, 1u); // Only the first miss.
}

//===----------------------------------------------------------------------===//
// Victim (exclusive) last level.
//===----------------------------------------------------------------------===//

namespace {

CacheHierarchySim victimHierarchy() {
  return CacheHierarchySim({level("L1", 8 * 1024),
                            level("L2", 32 * 1024),
                            level("L3", 64 * 1024, 16)},
                           /*VictimLLC=*/true);
}

} // namespace

TEST(VictimLLC, MemoryFillsBypassTheLLC) {
  CacheHierarchySim Sim = victimHierarchy();
  Sim.load(0);
  // The line went to L1/L2 only; the LLC saw a miss and no fill.
  EXPECT_EQ(Sim.level(2).stats().Misses, 1u);
  EXPECT_EQ(Sim.level(2).stats().FillLines, 0u);
  EXPECT_EQ(Sim.level(0).stats().FillLines, 1u);
  EXPECT_EQ(Sim.level(1).stats().FillLines, 1u);
}

TEST(VictimLLC, EvictedLinesEnterAndHitInTheLLC) {
  CacheHierarchySim Sim = victimHierarchy();
  // Stream 48 KiB: overflows L2 (32K), victims land in the 64K LLC.
  const unsigned N = 6 * 1024;
  for (unsigned I = 0; I < N; ++I)
    Sim.load(static_cast<uint64_t>(I) * 8);
  unsigned long long LlcFills = Sim.level(2).stats().FillLines;
  EXPECT_GT(LlcFills, 0ull);
  // Second pass: the head of the stream was evicted from L2 but lives in
  // the LLC -> LLC hits with no extra memory fills for those lines.
  unsigned long long MemBefore = Sim.traffic().MemLoadBytes;
  for (unsigned I = 0; I < N; ++I)
    Sim.load(static_cast<uint64_t>(I) * 8);
  EXPECT_GT(Sim.level(2).stats().Hits, 0ull);
  EXPECT_LT(Sim.traffic().MemLoadBytes - MemBefore, N * 8ull / 2);
}

TEST(VictimLLC, ExclusiveCapacityExceedsInclusive) {
  // Working set of 80 KiB: fits L2+L3 (96K) exclusively, but not the
  // 64K inclusive LLC alone.  The exclusive hierarchy serves the second
  // pass without memory traffic; the inclusive one cannot.
  const unsigned N = 10 * 1024; // 80 KiB of doubles.
  auto Stream = [&](CacheHierarchySim &Sim) {
    for (int Round = 0; Round < 3; ++Round)
      for (unsigned I = 0; I < N; ++I)
        Sim.load(static_cast<uint64_t>(I) * 8);
    return Sim.traffic().MemLoadBytes;
  };
  CacheHierarchySim Exclusive = victimHierarchy();
  CacheHierarchySim Inclusive({level("L1", 8 * 1024),
                               level("L2", 32 * 1024),
                               level("L3", 64 * 1024, 16)});
  unsigned long long MemEx = Stream(Exclusive);
  unsigned long long MemIn = Stream(Inclusive);
  EXPECT_LT(MemEx, MemIn);
  // Exclusive: only the cold pass misses.
  EXPECT_LT(MemEx, N * 8ull * 3 / 2);
}

TEST(VictimLLC, DirtyVictimsReachMemoryExactlyOnce) {
  CacheHierarchySim Sim = victimHierarchy();
  // Write a 160 KiB region (beyond L2+L3): dirty lines cascade L1 -> L2
  // -> LLC -> memory.
  const unsigned N = 20 * 1024;
  for (unsigned I = 0; I < N; ++I)
    Sim.store(static_cast<uint64_t>(I) * 8);
  HierarchyTraffic T = Sim.traffic();
  // Everything written that no longer fits on chip must have been
  // written back; resident dirty lines (~96 KiB) remain.
  unsigned long long Footprint = N * 8ull;
  EXPECT_GT(T.MemStoreBytes, Footprint / 3);
  EXPECT_LE(T.MemStoreBytes, Footprint);
  EXPECT_EQ(T.MemLoadBytes, Footprint); // Write-allocate fills.
}

TEST(VictimLLC, FromMachineHonorsVictimFlag) {
  MachineModel M = MachineModel::cascadeLakeSP();
  CacheHierarchySim A = CacheHierarchySim::fromMachine(M, false, true);
  EXPECT_TRUE(A.victimLLC());
  CacheHierarchySim B = CacheHierarchySim::fromMachine(M, false, false);
  EXPECT_FALSE(B.victimLLC());
}

TEST(VictimLLC, MultiSweepStoreShareIsOneThird) {
  // Streaming heat3d moves 24 B/LUP at the memory boundary: an 8 B read
  // of the input, an 8 B write-allocate fill of the output line, and its
  // 8 B writeback.  The store share of that traffic must stay near 1/3
  // under the exclusive organization too — dirty lines detour through
  // the victim LLC but still reach memory exactly once.
  MachineModel M = MachineModel::cascadeLakeSP();
  M.Caches[0].SizeBytes = 16 * 1024;
  M.Caches[1].SizeBytes = 128 * 1024;
  M.Caches[2].SizeBytes = 1024 * 1024;
  CacheHierarchySim Exc = CacheHierarchySim::fromMachine(M, false, true);
  StencilTraceRunner Runner(StencilSpec::heat3d(), GridDims{96, 96, 64},
                            KernelConfig());
  Runner.run(Exc, 3);
  HierarchyTraffic T = Exc.traffic();
  double Share = static_cast<double>(T.MemStoreBytes) /
                 static_cast<double>(T.MemLoadBytes + T.MemStoreBytes);
  EXPECT_GT(Share, 0.25) << "stores " << T.MemStoreBytes << " loads "
                         << T.MemLoadBytes;
  EXPECT_LT(Share, 0.40) << "stores " << T.MemStoreBytes << " loads "
                         << T.MemLoadBytes;
}

TEST(VictimLLC, MultiSweepWritebackAccountingIsConserved) {
  // Accounting invariants of a multi-sweep victim-LLC replay: every
  // memory writeback is an LLC dirty eviction (lines leave the chip only
  // through the exclusive last level), per-level lookups balance, and
  // the writeback volume is bounded by the dirtied footprint minus what
  // can still be resident on chip.
  MachineModel M = MachineModel::cascadeLakeSP();
  M.Caches[0].SizeBytes = 16 * 1024;
  M.Caches[1].SizeBytes = 128 * 1024;
  M.Caches[2].SizeBytes = 1024 * 1024;
  CacheHierarchySim Exc = CacheHierarchySim::fromMachine(M, false, true);
  GridDims Dims{96, 96, 64};
  const int Sweeps = 3;
  TraceTraffic T =
      StencilTraceRunner(StencilSpec::heat3d(), Dims, KernelConfig())
          .run(Exc, Sweeps);
  HierarchyTraffic H = Exc.traffic();
  unsigned LineBytes = Exc.level(0).config().LineBytes;
  EXPECT_EQ(H.MemStoreBytes,
            Exc.level(2).stats().WritebackLines * LineBytes);
  for (unsigned L = 0; L < 3; ++L) {
    const CacheLevelStats &S = Exc.level(L).stats();
    EXPECT_EQ(S.Hits + S.Misses, S.Accesses) << "level " << L;
  }
  // Each sweep dirties the full output grid once; everything beyond the
  // on-chip capacity must have been written back.
  unsigned long long StoreFootprint = T.Lups * 8ull; // Lups spans sweeps.
  unsigned long long Capacity = 0;
  for (unsigned L = 0; L < 3; ++L)
    Capacity += Exc.level(L).config().SizeBytes;
  EXPECT_LE(H.MemStoreBytes, StoreFootprint);
  EXPECT_GE(H.MemStoreBytes + 2 * Capacity, StoreFootprint);
}

TEST(VictimLLC, WavefrontTemporalBlockingCutsVictimMemoryTraffic) {
  // Temporal blocking must pay off under the exclusive organization as
  // well: a depth-2 wavefront keeps the intermediate sweep on chip (the
  // 384 KiB window fits the victim L3), so its memory traffic undercuts
  // two independent sweeps — and the victim writeback accounting stays
  // conserved under the blocked schedule.
  MachineModel M = MachineModel::cascadeLakeSP();
  M.Caches[0].SizeBytes = 16 * 1024;
  M.Caches[1].SizeBytes = 128 * 1024;
  M.Caches[2].SizeBytes = 1024 * 1024;
  GridDims Dims{64, 64, 64};
  KernelConfig Wave;
  Wave.WavefrontDepth = 2;
  Wave.Block.Z = 2;
  CacheHierarchySim Blocked = CacheHierarchySim::fromMachine(M, false, true);
  TraceTraffic WF = StencilTraceRunner(StencilSpec::heat3d(), Dims, Wave)
                        .runTemporal(Blocked);
  CacheHierarchySim Flat = CacheHierarchySim::fromMachine(M, false, true);
  TraceTraffic Sweep =
      StencilTraceRunner(StencilSpec::heat3d(), Dims, KernelConfig())
          .run(Flat, 2);
  EXPECT_LT(WF.BytesPerLup.back(), 0.8 * Sweep.BytesPerLup.back())
      << "wavefront " << WF.BytesPerLup.back() << " flat "
      << Sweep.BytesPerLup.back();
  HierarchyTraffic H = Blocked.traffic();
  unsigned LineBytes = Blocked.level(0).config().LineBytes;
  EXPECT_EQ(H.MemStoreBytes,
            Blocked.level(2).stats().WritebackLines * LineBytes);
}

TEST(VictimLLC, StencilTrafficCloseToInclusive) {
  // For streaming stencils the two organizations agree on memory traffic
  // (the documented justification for the inclusive default).
  MachineModel M = MachineModel::cascadeLakeSP();
  M.Caches[0].SizeBytes = 16 * 1024;
  M.Caches[1].SizeBytes = 128 * 1024;
  M.Caches[2].SizeBytes = 1024 * 1024;
  GridDims Dims{96, 96, 48};
  StencilSpec S = StencilSpec::heat3d();
  CacheHierarchySim Inc = CacheHierarchySim::fromMachine(M, false, false);
  CacheHierarchySim Exc = CacheHierarchySim::fromMachine(M, false, true);
  double MemInc =
      StencilTraceRunner(S, Dims, KernelConfig()).run(Inc, 3).BytesPerLup.back();
  double MemExc =
      StencilTraceRunner(S, Dims, KernelConfig()).run(Exc, 3).BytesPerLup.back();
  EXPECT_LT(std::abs(MemInc - MemExc), 0.25 * MemInc)
      << "inclusive " << MemInc << " exclusive " << MemExc;
}
