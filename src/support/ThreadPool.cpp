//===- support/ThreadPool.cpp - Tile work-stealing pool -------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/StringUtils.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace ys;

namespace {

/// Set while the current thread is executing inside a parallel region of
/// any pool; nested parallel calls serialize instead of deadlocking on the
/// pool's join state.
thread_local bool InParallelRegion = false;

/// Pool index of the current thread within the region it is executing
/// (0 outside any region); serialized nested calls report this index.
thread_local unsigned CurrentThreadIdx = 0;

long long nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

std::string PoolStats::str() const {
  return format("tiles=%llu stolen=%llu active=%u/%zu busy=%.3fs",
                totalRun(), totalStolen(), activeThreads(), Threads.size(),
                totalBusySeconds());
}

unsigned ThreadPool::defaultThreadCount() {
  if (const char *E = std::getenv("YS_THREADS")) {
    Expected<long> V = parseLong(E);
    if (V && *V > 0)
      return static_cast<unsigned>(*V);
    // A silently ignored YS_THREADS makes every downstream measurement
    // (and its cache fingerprint) quietly use hardware_concurrency; warn
    // once so a typo like YS_THREADS=1O is visible.
    static std::atomic<bool> Warned{false};
    if (!Warned.exchange(true))
      std::fprintf(stderr,
                   "warning: YS_THREADS='%s' is not a positive integer; "
                   "using hardware concurrency\n",
                   E);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

ThreadPool::ThreadPool(unsigned NumThreads)
    : NumThreads(NumThreads == 0 ? 1 : NumThreads) {
  Deques.reserve(this->NumThreads);
  Stats.reserve(this->NumThreads);
  for (unsigned I = 0; I < this->NumThreads; ++I) {
    Deques.push_back(std::make_unique<Deque>());
    Stats.push_back(std::make_unique<Counters>());
  }
  // Worker 0 is the calling thread; spawn NumThreads - 1 helpers.
  for (unsigned I = 1; I < this->NumThreads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

bool ThreadPool::popOwn(unsigned SelfIdx, long &Tile) {
  Deque &D = *Deques[SelfIdx];
  std::lock_guard<std::mutex> Lock(D.M);
  if (D.Tiles.empty())
    return false;
  Tile = D.Tiles.front();
  D.Tiles.pop_front();
  return true;
}

bool ThreadPool::stealFrom(unsigned SelfIdx, unsigned Participants,
                           long &Tile) {
  for (unsigned Step = 1; Step < Participants; ++Step) {
    unsigned Victim = (SelfIdx + Step) % Participants;
    Deque &D = *Deques[Victim];
    std::lock_guard<std::mutex> Lock(D.M);
    if (D.Tiles.empty())
      continue;
    Tile = D.Tiles.back();
    D.Tiles.pop_back();
    return true;
  }
  return false;
}

long ThreadPool::workOn(const Job &J, unsigned SelfIdx) {
  Counters &C = *Stats[SelfIdx];
  long Executed = 0;
  long Tile;
  while (true) {
    bool Stolen = false;
    if (!popOwn(SelfIdx, Tile)) {
      if (!stealFrom(SelfIdx, J.Participants, Tile))
        break;
      Stolen = true;
    }
    long long T0 = nowNanos();
    J.Fn(SelfIdx, Tile / J.NumYTiles, Tile % J.NumYTiles);
    C.BusyNanos.fetch_add(nowNanos() - T0, std::memory_order_relaxed);
    C.TasksRun.fetch_add(1, std::memory_order_relaxed);
    if (Stolen)
      C.TasksStolen.fetch_add(1, std::memory_order_relaxed);
    ++Executed;
  }
  return Executed;
}

void ThreadPool::workerLoop(unsigned Index) {
  unsigned SeenGeneration = 0;
  while (true) {
    Job Local;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorkers.wait(Lock, [&] {
        return ShuttingDown || Current.Generation != SeenGeneration;
      });
      if (ShuttingDown)
        return;
      SeenGeneration = Current.Generation;
      if (Index >= Current.Participants)
        continue; // Not part of this job; wait for the next one.
      Local = Current; // Copy the task under the lock (workers must never
                       // touch Current once the master may be reusing it).
    }
    InParallelRegion = true;
    CurrentThreadIdx = Index;
    workOn(Local, Index);
    CurrentThreadIdx = 0;
    InParallelRegion = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      assert(ActiveWorkers > 0 && "worker finished with no outstanding job");
      if (--ActiveWorkers == 0)
        WakeMaster.notify_one();
    }
  }
}

void ThreadPool::runTilesInline(
    long NumZTiles, long NumYTiles,
    const std::function<void(unsigned, long, long)> &Fn) {
  // CurrentThreadIdx may come from an enclosing region of a *different*
  // (larger) pool; clamp it into this pool's range.
  unsigned Idx = CurrentThreadIdx < NumThreads ? CurrentThreadIdx : 0;
  Counters &C = *Stats[Idx];
  long long T0 = nowNanos();
  for (long Z = 0; Z < NumZTiles; ++Z)
    for (long Y = 0; Y < NumYTiles; ++Y)
      Fn(Idx, Z, Y);
  C.BusyNanos.fetch_add(nowNanos() - T0, std::memory_order_relaxed);
  C.TasksRun.fetch_add(static_cast<unsigned long long>(NumZTiles) * NumYTiles,
                       std::memory_order_relaxed);
}

void ThreadPool::parallelForTiles(
    long NumZTiles, long NumYTiles,
    const std::function<void(unsigned, long, long)> &Fn,
    unsigned MaxWorkers) {
  if (NumZTiles <= 0 || NumYTiles <= 0)
    return;
  long Total = NumZTiles * NumYTiles;

  unsigned Participants = MaxWorkers == 0 ? NumThreads
                                          : std::min(MaxWorkers, NumThreads);
  if (static_cast<long>(Participants) > Total)
    Participants = static_cast<unsigned>(Total);

  // Serialize when the pool is trivial, when a single task calls back into
  // the pool (nested region), or when only one worker may participate.
  if (Participants <= 1 || NumThreads == 1 || InParallelRegion) {
    runTilesInline(NumZTiles, NumYTiles, Fn);
    return;
  }

  // Seed the participating deques with contiguous tile blocks: thread p
  // owns tiles [p*Total/Participants, (p+1)*Total/Participants), so
  // neighboring z blocks stay on the same thread unless stolen.
  for (unsigned P = 0; P < Participants; ++P) {
    long B = Total * P / Participants;
    long E = Total * (P + 1) / Participants;
    Deque &D = *Deques[P];
    std::lock_guard<std::mutex> Lock(D.M);
    assert(D.Tiles.empty() && "deque not drained by previous job");
    for (long T = B; T < E; ++T)
      D.Tiles.push_back(T);
  }

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Current.Fn = Fn;
    Current.NumYTiles = NumYTiles;
    Current.Participants = Participants;
    ++Current.Generation;
    ActiveWorkers = Participants - 1;
  }
  WakeWorkers.notify_all();

  Job Local;
  {
    // Take the master's own copy under the lock, symmetric with workers.
    std::lock_guard<std::mutex> Lock(Mutex);
    Local = Current;
  }
  InParallelRegion = true;
  CurrentThreadIdx = 0;
  workOn(Local, 0);
  CurrentThreadIdx = 0;
  InParallelRegion = false;

  // Join: wait until every participating worker has left its work loop so
  // the deques and Current may be reused by the next call.
  std::unique_lock<std::mutex> Lock(Mutex);
  WakeMaster.wait(Lock, [&] { return ActiveWorkers == 0; });
}

void ThreadPool::parallelFor(long Begin, long End,
                             const std::function<void(long)> &Fn) {
  if (End <= Begin)
    return;
  parallelForTiles(End - Begin, 1,
                   [&Fn, Begin](unsigned, long I, long) { Fn(Begin + I); });
}

PoolStats ThreadPool::stats() const {
  PoolStats S;
  S.Threads.resize(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I) {
    const Counters &C = *Stats[I];
    S.Threads[I].TasksRun = C.TasksRun.load(std::memory_order_relaxed);
    S.Threads[I].TasksStolen = C.TasksStolen.load(std::memory_order_relaxed);
    S.Threads[I].BusySeconds =
        static_cast<double>(C.BusyNanos.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return S;
}

void ThreadPool::resetStats() {
  for (unsigned I = 0; I < NumThreads; ++I) {
    Counters &C = *Stats[I];
    C.TasksRun.store(0, std::memory_order_relaxed);
    C.TasksStolen.store(0, std::memory_order_relaxed);
    C.BusyNanos.store(0, std::memory_order_relaxed);
  }
}
