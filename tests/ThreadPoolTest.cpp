//===- tests/ThreadPoolTest.cpp - tile scheduler tests ---------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the work-stealing tile scheduler: exact tile coverage,
/// stealing under skewed tile costs, thread-count capping, reentrancy
/// serialization, and clean shutdown.  These run under ThreadSanitizer via
/// the `concurrency` ctest label.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace ys;

namespace {

TEST(ThreadPoolTiles, CoversExactPartition) {
  ThreadPool Pool(4);
  const long NZ = 7, NY = 5; // Not divisible by the thread count.
  std::vector<std::atomic<int>> Hits(NZ * NY);
  Pool.parallelForTiles(NZ, NY, [&](unsigned, long Z, long Y) {
    ASSERT_GE(Z, 0);
    ASSERT_LT(Z, NZ);
    ASSERT_GE(Y, 0);
    ASSERT_LT(Y, NY);
    Hits[Z * NY + Y]++;
  });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  EXPECT_EQ(Pool.stats().totalRun(), static_cast<unsigned long long>(NZ * NY));
}

TEST(ThreadPoolTiles, SingleTileRunsInline) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.parallelForTiles(1, 1, [&](unsigned T, long Z, long Y) {
    EXPECT_EQ(T, 0u);
    EXPECT_EQ(Z, 0);
    EXPECT_EQ(Y, 0);
    Count++;
  });
  EXPECT_EQ(Count.load(), 1);
}

TEST(ThreadPoolTiles, EmptyTileGridIsNoop) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.parallelForTiles(0, 8, [&](unsigned, long, long) { Count++; });
  Pool.parallelForTiles(8, 0, [&](unsigned, long, long) { Count++; });
  EXPECT_EQ(Count.load(), 0);
}

TEST(ThreadPoolTiles, MaxWorkersCapsParticipants) {
  ThreadPool Pool(4);
  std::mutex M;
  std::set<unsigned> ThreadsSeen;
  Pool.parallelForTiles(
      8, 8,
      [&](unsigned T, long, long) {
        std::lock_guard<std::mutex> Lock(M);
        ThreadsSeen.insert(T);
      },
      /*MaxWorkers=*/2);
  EXPECT_LE(ThreadsSeen.size(), 2u);
  for (unsigned T : ThreadsSeen)
    EXPECT_LT(T, 2u);
  // Stats agree: only the first two slots may have run tasks.
  PoolStats S = Pool.stats();
  ASSERT_EQ(S.Threads.size(), 4u);
  EXPECT_EQ(S.Threads[2].TasksRun, 0ull);
  EXPECT_EQ(S.Threads[3].TasksRun, 0ull);
  EXPECT_EQ(S.totalRun(), 64ull);
}

// Stealing under skewed tile costs.  Tile (0,0) is seeded to thread 0 and
// blocks until every other tile has finished; thread 0's remaining tiles
// can therefore only be completed by other threads stealing them.  Without
// a steal path this test deadlocks (and times out) instead of passing.
TEST(ThreadPoolTiles, StealsUnderSkewedTileCosts) {
  ThreadPool Pool(4);
  const long NZ = 4, NY = 4;
  const int Total = NZ * NY;
  std::atomic<int> OthersDone{0};
  std::vector<std::atomic<int>> Hits(Total);
  Pool.parallelForTiles(NZ, NY, [&](unsigned, long Z, long Y) {
    Hits[Z * NY + Y]++;
    if (Z == 0 && Y == 0) {
      while (OthersDone.load() < Total - 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      OthersDone++;
    }
  });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  EXPECT_GT(Pool.stats().totalStolen(), 0ull);
}

// Regression test for the nested-parallelFor deadlock: a task calling back
// into the pool must serialize instead of deadlocking on the join state.
TEST(ThreadPoolTiles, ReentrantUseSerializes) {
  ThreadPool Pool(4);
  std::atomic<long> Inner{0};
  Pool.parallelForTiles(4, 2, [&](unsigned, long, long) {
    Pool.parallelFor(0, 10, [&](long) { Inner++; });
  });
  EXPECT_EQ(Inner.load(), 8 * 10);
}

TEST(ThreadPoolTiles, NestedAcrossPoolsSerializes) {
  ThreadPool Outer(4);
  ThreadPool InnerPool(2);
  std::atomic<long> Count{0};
  Outer.parallelForTiles(4, 4, [&](unsigned, long, long) {
    InnerPool.parallelFor(0, 5, [&](long) { Count++; });
  });
  EXPECT_EQ(Count.load(), 16 * 5);
}

TEST(ThreadPoolTiles, ShutdownWhileIdle) {
  // Construct and destroy pools that never receive work; the destructor
  // must not hang or touch freed state.
  for (int I = 0; I < 8; ++I) {
    ThreadPool Pool(3);
    (void)Pool;
  }
  // And one that worked, then idles before destruction.
  ThreadPool Pool(4);
  std::atomic<int> N{0};
  Pool.parallelForTiles(2, 2, [&](unsigned, long, long) { N++; });
  EXPECT_EQ(N.load(), 4);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

TEST(ThreadPoolTiles, ReusableAcrossJobs) {
  ThreadPool Pool(4);
  for (int Round = 0; Round < 50; ++Round) {
    std::atomic<long> Sum{0};
    Pool.parallelForTiles(5, 3, [&](unsigned, long Z, long Y) {
      Sum += Z * 3 + Y;
    });
    EXPECT_EQ(Sum.load(), 105); // 0 + 1 + ... + 14.
  }
}

TEST(ThreadPoolTiles, ParallelForRunsOneTaskPerIndex) {
  // One tile per index: 5 ranks on 4 threads are 5 stealable tasks, not
  // ceil(5/4)-sized chunks that leave a thread without work.
  ThreadPool Pool(4);
  std::atomic<int> Hits{0};
  Pool.parallelFor(0, 5, [&](long) { Hits++; });
  EXPECT_EQ(Hits.load(), 5);
  EXPECT_EQ(Pool.stats().totalRun(), 5ull);
}

TEST(ThreadPoolTiles, StatsResetAndBusyTime) {
  ThreadPool Pool(2);
  Pool.parallelForTiles(4, 4, [&](unsigned, long, long) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  PoolStats S = Pool.stats();
  EXPECT_EQ(S.totalRun(), 16ull);
  EXPECT_GT(S.totalBusySeconds(), 0.0);
  EXPECT_FALSE(S.str().empty());
  Pool.resetStats();
  EXPECT_EQ(Pool.stats().totalRun(), 0ull);
}

TEST(ThreadPoolTiles, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPoolTiles, UnparseableYsThreadsFallsBackWithWarning) {
  const char *Old = std::getenv("YS_THREADS");
  std::string Saved = Old ? Old : "";
  // Garbage and non-positive values fall back to hardware concurrency
  // (and warn once to stderr) instead of silently running serial.
  setenv("YS_THREADS", "abc", 1);
  unsigned Fallback = ThreadPool::defaultThreadCount();
  EXPECT_GE(Fallback, 1u);
  setenv("YS_THREADS", "-3", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), Fallback);
  setenv("YS_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), Fallback);
  setenv("YS_THREADS", "8nope", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), Fallback);
  setenv("YS_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
  if (Old)
    setenv("YS_THREADS", Saved.c_str(), 1);
  else
    unsetenv("YS_THREADS");
}

} // namespace
