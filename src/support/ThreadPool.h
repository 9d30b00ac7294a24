//===- support/ThreadPool.h - Tile work-stealing pool ------------*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool scheduling 2-D (z,y) tile grids with work
/// stealing.  It replaces the OpenMP runtime used by YASK/YaskSite: the
/// kernel executor enumerates (zBlock, yBlock) cache-block tiles and hands
/// them to parallelForTiles, which seeds each participating thread's deque
/// with a contiguous block of tiles (preserving z locality, and matching
/// the first-touch page placement done by Grid) and lets idle threads
/// steal from the tail of busy threads' deques.  Static chunking — the
/// previous scheduler — leaves cores idle whenever the tile costs are
/// skewed or the tile count is not a multiple of the thread count;
/// stealing bounds that imbalance by one tile.
///
/// Per-thread counters (tasks run / stolen, busy seconds) are kept and can
/// be snapshotted as a PoolStats for the tuner harness and benches.
///
//===----------------------------------------------------------------------===//

#ifndef YS_SUPPORT_THREADPOOL_H
#define YS_SUPPORT_THREADPOOL_H

#include "support/PoolStats.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ys {

/// A fixed-size pool of worker threads with fork-join tile scheduling.
///
/// All parallel entry points block until the submitted work is complete.
/// Nested calls from inside a task are detected and serialized on the
/// calling thread (the OpenMP "nested parallelism off" behavior), so
/// reentrant use is safe instead of deadlocking.
class ThreadPool {
public:
  /// Creates a pool with \p NumThreads workers (>= 1).  NumThreads == 1 runs
  /// all work inline on the calling thread.
  explicit ThreadPool(unsigned NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return NumThreads; }

  /// Thread count from the YS_THREADS environment variable when set to a
  /// positive integer, otherwise std::thread::hardware_concurrency().
  static unsigned defaultThreadCount();

  /// Runs Fn(ThreadIdx, ZTile, YTile) exactly once for every tile in
  /// [0, NumZTiles) x [0, NumYTiles).  Tiles are seeded as contiguous
  /// blocks onto per-thread deques and rebalanced by work stealing;
  /// ThreadIdx is the pool index of the thread that actually executes the
  /// tile.  At most \p MaxWorkers threads participate (0 = all).  Blocks
  /// until every tile has run.
  void parallelForTiles(long NumZTiles, long NumYTiles,
                        const std::function<void(unsigned, long, long)> &Fn,
                        unsigned MaxWorkers = 0);

  /// Runs Fn(I) for every I in [Begin, End), one tile per index over
  /// parallelForTiles, so every thread can take (or steal) an index.
  /// Blocks until complete.
  void parallelFor(long Begin, long End,
                   const std::function<void(long)> &Fn);

  /// Snapshot of the per-thread counters accumulated since construction or
  /// the last resetStats().  Call while no parallel region is running.
  PoolStats stats() const;

  /// Zeroes all per-thread counters.
  void resetStats();

private:
  /// One parallelForTiles invocation, shared with the workers.
  struct Job {
    std::function<void(unsigned, long, long)> Fn;
    long NumYTiles = 1;
    unsigned Participants = 1;
    unsigned Generation = 0;
  };

  /// Per-thread tile queue.  The owner pops from the front (ascending tile
  /// order = z locality); thieves steal from the back.
  struct Deque {
    std::mutex M;
    std::deque<long> Tiles;
  };

  /// Per-thread counters, padded to avoid false sharing; each thread only
  /// writes its own slot.
  struct alignas(64) Counters {
    std::atomic<unsigned long long> TasksRun{0};
    std::atomic<unsigned long long> TasksStolen{0};
    std::atomic<long long> BusyNanos{0};
  };

  void workerLoop(unsigned Index);
  /// Drains SelfIdx's deque then steals until no tiles remain; returns the
  /// number of tiles executed.
  long workOn(const Job &J, unsigned SelfIdx);
  bool popOwn(unsigned SelfIdx, long &Tile);
  bool stealFrom(unsigned SelfIdx, unsigned Participants, long &Tile);
  void runTilesInline(long NumZTiles, long NumYTiles,
                      const std::function<void(unsigned, long, long)> &Fn);

  unsigned NumThreads;
  std::vector<std::thread> Workers;
  std::vector<std::unique_ptr<Deque>> Deques;
  std::vector<std::unique_ptr<Counters>> Stats;

  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable WakeMaster;
  Job Current;
  unsigned ActiveWorkers = 0; ///< Participating workers not yet joined.
  bool ShuttingDown = false;
};

} // namespace ys

#endif // YS_SUPPORT_THREADPOOL_H
