//===- service/TuningService.h - Long-lived tuning service -------*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived, thread-safe tuning service answering the paper's workflow
/// queries programmatically: ECM predictions, model-driven parameter
/// selection, timed measurements, Offsite ODE-variant rankings, and kernel
/// source emission.  The CLI driver's subcommands are thin clients of this
/// class; `yasksite serve` exposes the same calls over line-delimited JSON.
///
/// Concurrency architecture (the scaling story, see DESIGN.md "Tuning
/// service"):
///
///  * **Sharded cache front.**  Measured results live in a mutex-striped
///    `ShardedTuningCache` with the existing versioned JSON-lines file as
///    the persistence tier (loaded on construction, written by
///    `saveCache()`).  Repeat queries are answered in microseconds under
///    one stripe lock.
///
///  * **Request deduplication.**  Concurrent measure requests with the
///    same fingerprint coalesce: the first becomes the leader and enqueues
///    one timed trial; the rest park on the in-flight entry and receive
///    the broadcast result.  N identical requests cost exactly one trial.
///
///  * **Admission control.**  Model-only queries (predict / tune / rank /
///    emit) execute entirely on the calling thread and never touch the
///    trial queue, so a microsecond ECM answer is never stuck behind a
///    seconds-long timed trial.  Timed trials funnel through a single
///    FIFO worker lane — serializing them is deliberate: concurrent
///    trials would perturb each other's timings.  The kernels inside a
///    trial still parallelize through the existing work-stealing
///    ThreadPool via MeasureHarness.
///
//===----------------------------------------------------------------------===//

#ifndef YS_SERVICE_TUNINGSERVICE_H
#define YS_SERVICE_TUNINGSERVICE_H

#include "cachesim/StencilTrace.h"
#include "ecm/BlockingSelector.h"
#include "offsite/Offsite.h"
#include "service/Resolve.h"
#include "service/ShardedCache.h"
#include "tuner/TuningStrategy.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ys {

class MeasureHarness;

/// \name Query/result types.
/// @{

/// ECM prediction of one (stencil, machine, dims, config) point.
struct PredictQuery {
  std::string Stencil;                  ///< Builtin name or DSL file path.
  std::string Machine = "CascadeLakeSP";
  GridDims Dims{256, 256, 128};
  KernelConfig Config;
  bool FoldGiven = false; ///< When false, the fold is model-selected.
  unsigned Cores = 1;

  /// Cross-check the ECM traffic prediction against the cache simulator
  /// (sampled fast mode) and report the memory-boundary delta.  With
  /// SimMode::Auto the service samples only when the sampled plan is both
  /// trustworthy and within ServiceOptions::SimReplayBudgetLups, running a
  /// cheap full replay for small grids and skipping (with a reason)
  /// otherwise; Full/Sampled force the respective replay.  Off by default
  /// for programmatic callers (model-only answers stay microsecond-fast);
  /// the serve protocol and the CLI default to "auto".
  bool SimCheck = false;
  SimMode Sim = SimMode::Auto;
};

struct PredictResult {
  StencilSpec Spec;
  std::string MachineName;
  KernelConfig Config; ///< With the model-selected fold filled in.
  unsigned Cores = 1;
  ECMPrediction Prediction;

  /// \name Simulator cross-check (when PredictQuery::SimCheck).
  /// @{
  bool SimChecked = false;   ///< A replay actually ran.
  std::string SimModeUsed;   ///< "sampled" | "full" | "skipped" | "".
  std::string SimNote;       ///< Fallback/skip reason, when any.
  TraceTraffic SimTraffic;   ///< Per-boundary simulated traffic.
  double SimMemBytesPerLup = 0;   ///< Simulated memory-boundary B/LUP.
  double ModelMemBytesPerLup = 0; ///< ECM prediction for the same boundary.
  double SimDeltaFraction = 0;    ///< |model - sim| / sim.
  /// @}
};

/// Model-driven parameter selection; optionally measure the winner.
struct TuneQuery {
  std::string Stencil;
  std::string Machine = "CascadeLakeSP";
  GridDims Dims{256, 256, 128};
  KernelConfig Config; ///< Base config (fold honored when FoldGiven).
  bool FoldGiven = false;
  unsigned Cores = 0; ///< 0 = full socket of the target machine.
  /// Run one timed trial of the model's pick (through the cache and the
  /// dedup/trial lane).  False = pure model, zero kernel runs.
  bool Measure = false;
};

struct TuneResult {
  std::string MachineName;
  unsigned Cores = 0;
  ECMPrediction Unblocked;  ///< Baseline: the query config as-is.
  BlockingChoice Analytic;  ///< Closed-form layer-condition choice.
  BlockingChoice Best;      ///< Model argmax over the candidate space.
  bool Measured = false;    ///< True when the query asked for a trial.
  double MeasuredMlups = 0;
  std::string MeasureSource; ///< "cache" | "trial" | "coalesced".
};

/// One timed measurement of an explicit configuration.
struct MeasureQuery {
  std::string Stencil;
  std::string Machine = "CascadeLakeSP";
  GridDims Dims{256, 256, 128};
  KernelConfig Config;
  std::string Backend; ///< "plan" | "jit" | "" (follow YS_BACKEND).
};

struct MeasureResult {
  double Mlups = 0;
  double SecondsPerStep = 0;
  std::string Key;    ///< Tuning-cache fingerprint.
  std::string Source; ///< "cache" | "trial" | "coalesced".
};

/// Offsite ODE-variant ranking (pure model, zero kernel runs).
struct RankQuery {
  std::string Method; ///< Butcher-tableau name, e.g. "rk4".
  std::string Ivp = "heat3d";
  long Resolution = 32;
  std::string Machine = "CascadeLakeSP";
  unsigned Cores = 1;
};

struct RankResult {
  std::string MachineName;
  std::string MethodName;
  std::string ProblemName;
  GridDims ProblemDims; ///< Dims the predictions were made for.
  unsigned Cores = 1;
  std::vector<VariantPrediction> Ranked; ///< Fastest first.
};

/// Kernel source emission.
struct EmitQuery {
  std::string Stencil;
  KernelConfig Config;
  std::string Backend; ///< "jit" = geometry-baked JIT translation unit.
  GridDims Dims{32, 32, 32}; ///< Jit unit geometry / temporal slab table.
  bool DimsGiven = false;
};

/// @}

/// Service configuration.
struct ServiceOptions {
  /// JSON-lines persistence tier; "" disables persistence.  Loaded (via
  /// TuningCache::loadOrCreate) on construction.
  std::string CachePath;

  /// Timing repetitions / sweeps per repeat for trials (MeasureHarness).
  unsigned Repeats = 3;
  unsigned SweepsPerRepeat = 2;

  /// Budget for the predict-path simulator cross-check under
  /// SimMode::Auto: the largest replay (sampled prefix, or full grid when
  /// the plan declines) the service will run per query.  Keeps predict
  /// latency bounded — queries above the budget report "skipped".
  unsigned long long SimReplayBudgetLups = 4 * 1000 * 1000;

  /// Test seam: when set, replaces the MeasureHarness for trials.  The
  /// dedup/admission machinery is identical either way.
  MeasureFn MeasureOverride;
};

/// Aggregated service counters (all monotonic since construction).
struct ServiceStats {
  unsigned long long ModelQueries = 0; ///< predict + model-only tune parts.
  unsigned long long RankQueries = 0;
  unsigned long long EmitQueries = 0;
  unsigned long long MeasureRequests = 0; ///< All measure() entries.
  unsigned long long CacheHits = 0;       ///< Sharded-front hits.
  unsigned long long CacheMisses = 0;
  unsigned long long TimedTrials = 0; ///< Trials actually executed.
  unsigned long long Coalesced = 0;   ///< Requests served by another's trial.
  unsigned long long KernelRuns = 0;  ///< Harness kernel sweeps (all trials).
  unsigned long long SimChecks = 0;   ///< Predict-path simulator replays.
  size_t CacheEntries = 0;
};

/// The long-lived tuning service.  All public methods are thread-safe.
class TuningService {
public:
  explicit TuningService(ServiceOptions Opts = ServiceOptions());
  ~TuningService(); ///< Drains the trial queue (pending callbacks fire).

  TuningService(const TuningService &) = delete;
  TuningService &operator=(const TuningService &) = delete;

  /// \name Model-only queries — answered on the calling thread, never
  /// queued behind timed trials (admission control).
  /// @{
  Expected<PredictResult> predict(const PredictQuery &Q);
  Expected<TuneResult> tune(const TuneQuery &Q);
  Expected<RankResult> rank(const RankQuery &Q);
  Expected<std::string> emitSource(const EmitQuery &Q);
  /// @}

  /// \name Measurements — cached, deduplicated, trial-lane serialized.
  /// @{

  /// Synchronous measure: returns when the result is available (possibly
  /// immediately from the cache, possibly after waiting on a coalesced
  /// in-flight trial).
  Expected<MeasureResult> measure(const MeasureQuery &Q);

  /// Asynchronous measure: \p Done is invoked exactly once — immediately
  /// on the calling thread for cache hits and errors, on the trial-lane
  /// worker otherwise.
  void measureAsync(const MeasureQuery &Q,
                    std::function<void(Expected<MeasureResult>)> Done);

  /// Blocks until the trial queue is empty and the worker is idle.
  void waitIdle();

  /// @}

  ServiceStats stats() const;

  /// Read access to the sharded front (tests compare it with the tier).
  ShardedTuningCache &cacheFront() { return Front; }

  /// Persists the merged front to \p Path (default: Options.CachePath)
  /// with the atomic temp+rename saveFile.
  Error saveCache();
  Error saveCache(const std::string &Path);

private:
  struct InFlight {
    /// (coalesced?, completion) per waiter; the leader is first with
    /// coalesced == false.
    std::vector<std::pair<bool, std::function<void(Expected<MeasureResult>)>>>
        Waiters;
  };

  /// Resolved, validated form of a MeasureQuery, ready for the trial lane.
  struct TrialJob {
    StencilSpec Spec;
    GridDims Dims;
    KernelConfig Config;
    std::string Key;
    std::string HarnessKey;
    std::string Backend; ///< Canonical backend name for the harness.
  };

  void simCheck(const PredictQuery &Q, const MachineModel &M,
                PredictResult &R);
  Expected<TrialJob> prepare(const MeasureQuery &Q) const;
  void runTrial(const TrialJob &Job);
  void enqueue(TrialJob Job);
  void workerLoop();

  ServiceOptions Options;
  ShardedTuningCache Front;

  std::mutex InFlightMutex;
  std::map<std::string, InFlight> InFlightByKey;

  // Trial lane: a single FIFO worker started lazily on the first trial.
  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::condition_variable IdleCV;
  std::deque<TrialJob> Queue;
  std::thread Worker;
  bool WorkerStarted = false;
  bool WorkerBusy = false;
  bool ShuttingDown = false;

  /// Per-(stencil, dims, backend) harnesses; trial-lane worker only.
  std::map<std::string, std::unique_ptr<MeasureHarness>> Harnesses;

  mutable std::atomic<unsigned long long> ModelQueries{0};
  mutable std::atomic<unsigned long long> RankQueries{0};
  mutable std::atomic<unsigned long long> EmitQueries{0};
  mutable std::atomic<unsigned long long> MeasureRequests{0};
  mutable std::atomic<unsigned long long> TimedTrials{0};
  mutable std::atomic<unsigned long long> Coalesced{0};
  mutable std::atomic<unsigned long long> KernelRuns{0};
  mutable std::atomic<unsigned long long> SimChecks{0};
};

} // namespace ys

#endif // YS_SERVICE_TUNINGSERVICE_H
