//===- tuner/OnlineTuner.cpp - Runtime auto-tuning ---------------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuner/OnlineTuner.h"

#include "support/Timer.h"
#include "support/Trace.h"
#include "tuner/TuningCache.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace ys;

OnlineTuner::OnlineTuner(StencilSpec Spec,
                         std::vector<KernelConfig> Candidates,
                         int StepsPerTrial)
    : Spec(std::move(Spec)), Candidates(std::move(Candidates)),
      StepsPerTrial(std::max(1, StepsPerTrial)) {
  assert(!this->Candidates.empty() && "need at least one candidate");
  for (const KernelConfig &C : this->Candidates) {
    assert(C.VectorFold == this->Candidates.front().VectorFold &&
           "candidates must share the grid layout");
    (void)C;
  }
}

void OnlineTuner::attachCache(TuningCache *NewCache,
                              const MachineModel &Machine) {
  Cache = NewCache;
  CacheMachineId = TuningCache::machineId(Machine);
}

OnlineTuner::Result OnlineTuner::run(Grid &U, Grid &Scratch, int Steps,
                                     ThreadPool *Pool) const {
  Trace::initFromEnv();
  Result R;
  R.Best = Candidates.front();
  Timer TotalTimer;
  int Done = 0;
  const double LupsPerStep = static_cast<double>(U.dims().lups());

  // The trial phase alternates the two buffers sweep by sweep; track which
  // grid currently holds the newest time level so individual sweeps can be
  // timed without runTimeSteps' copy-back entering the samples.
  Grid *Even = &U;
  Grid *Odd = &Scratch;

  // Cache prepass: candidates already measured on this host (same stencil,
  // machine, grid, config and thread environment) skip their timed trial;
  // their cached per-step time competes for the lock-in and their steps go
  // to the production phase instead.
  struct Pending {
    const KernelConfig *Config;
    std::string Key;
  };
  std::vector<Pending> ToTime;
  for (const KernelConfig &C : Candidates) {
    std::string Key;
    if (Cache) {
      Key = TuningCache::fingerprint(Spec, CacheMachineId, U.dims(), C,
                                     TuningCache::effectiveThreads(C));
      if (const TuningCache::Entry *E = Cache->lookup(Key)) {
        if (E->SecondsPerStep > 0) {
          ++R.CachedTrials;
          R.TrialLog.push_back({C, E->SecondsPerStep});
          TraceRecord Rec("online_trial");
          Rec.field("config", C.str())
              .field("seconds_per_step", E->SecondsPerStep)
              .field("steps", 0)
              .field("cached", 1L)
              .emit();
          continue;
        }
      }
    }
    ToTime.push_back({&C, std::move(Key)});
  }

  // One untimed warm-up trial before the rotation (mirroring
  // measureSeconds): without it the first candidate pays the cold-cache /
  // page-fault cost alone and selection is biased toward whatever runs
  // later.  Warm-up steps are real timesteps, so they count toward Steps.
  // A fully cached rotation times nothing, so it needs no warm-up either.
  // The warm-up executor outlives the warm-up so the first timed candidate
  // reuses its compiled kernel plan: warm-up exists to reach steady state,
  // and rebuilding the plan between warm-up and trial would throw part of
  // that away.
  std::unique_ptr<KernelExecutor> WarmExec;
  if (!ToTime.empty()) {
    const KernelConfig &C = *ToTime.front().Config;
    int Depth = std::max(1, C.WavefrontDepth);
    int WarmSteps = std::max(StepsPerTrial, Depth);
    // Only warm up if a timed trial still fits afterwards; otherwise the
    // warm-up would just eat the production budget.
    if (Done + 2 * WarmSteps <= Steps) {
      WarmExec = std::make_unique<KernelExecutor>(Spec, C);
      TraceScope Scope("online_warmup");
      Scope.field("config", C.str()).field("steps", WarmSteps);
      WarmExec->runTimeSteps(*Even, *Odd, WarmSteps, Pool);
      Done += WarmSteps;
      R.WarmupSteps = WarmSteps;
    }
  }

  // Trial phase: rotate through the uncached candidates, every trial doing
  // real timesteps.  Each trial is timed chunk by chunk — single sweeps,
  // or whole macro-steps for wavefront candidates — and reports the
  // *minimum* per-step time over its chunks (min-of-N, the least-noise
  // statistic), floored at the timer resolution so a sub-tick chunk can
  // never yield zero seconds per step.
  for (const Pending &P : ToTime) {
    const KernelConfig &C = *P.Config;
    int Depth = std::max(1, C.WavefrontDepth);
    int TrialSteps = std::max(StepsPerTrial, Depth);
    if (Done + TrialSteps > Steps)
      break; // Not enough steps left for a fair trial.
    // The candidate that ran the warm-up keeps its executor (and plan).
    std::unique_ptr<KernelExecutor> OwnExec;
    KernelExecutor *ExecPtr;
    if (WarmExec && &P == &ToTime.front()) {
      ExecPtr = WarmExec.get();
    } else {
      OwnExec = std::make_unique<KernelExecutor>(Spec, C);
      ExecPtr = OwnExec.get();
    }
    KernelExecutor &Exec = *ExecPtr;
    double PerStep = -1.0;
    unsigned Chunks = 0;
    int Run = 0;
    // Wavefront macro-steps of Depth sweeps each.
    while (Depth > 1 && TrialSteps - Run >= Depth) {
      Timer T;
      Exec.runTimeSteps(*Even, *Odd, Depth, Pool);
      double ChunkPerStep =
          std::max(T.seconds(), kMinMeasurableSeconds) / Depth;
      if (PerStep < 0 || ChunkPerStep < PerStep)
        PerStep = ChunkPerStep;
      Run += Depth;
      ++Chunks;
    }
    // Plain sweeps (the whole trial when Depth == 1, else the remainder).
    for (; Run < TrialSteps; ++Run) {
      Timer T;
      Exec.runSweep({Even}, *Odd, Pool);
      std::swap(Even, Odd);
      double Sec = std::max(T.seconds(), kMinMeasurableSeconds);
      if (PerStep < 0 || Sec < PerStep)
        PerStep = Sec;
      ++Chunks;
    }
    Done += TrialSteps;
    ++R.TrialsRun;
    R.TrialLog.push_back({C, PerStep});
    TraceRecord Rec("online_trial");
    Rec.field("config", C.str())
        .field("seconds_per_step", PerStep)
        .field("steps", TrialSteps)
        .field("chunks", Chunks)
        .field("cached", 0L)
        .emit();
    if (Cache) {
      TuningCache::Entry E;
      E.Key = P.Key;
      E.Summary = Spec.name() + " " + U.dims().str() + " " + C.str();
      E.SecondsPerStep = PerStep;
      E.Mlups = LupsPerStep / PerStep / 1e6;
      E.Repeats = Chunks;
      Cache->insert(std::move(E));
    }
  }

  // Lock in the fastest of every completed trial, timed and cached alike.
  double BestSeconds = -1.0;
  for (const auto &[C, Sec] : R.TrialLog)
    if (BestSeconds < 0.0 || Sec < BestSeconds) {
      BestSeconds = Sec;
      R.Best = C;
    }
  R.TuningSteps = Done;
  R.TuningSeconds = TotalTimer.seconds();

  // Production phase with the winner.
  if (Done < Steps) {
    KernelExecutor Exec(Spec, R.Best);
    Exec.runTimeSteps(*Even, *Odd, Steps - Done, Pool);
  }
  if (Even != &U)
    U.copyInteriorFrom(*Even, Pool);

  TraceRecord Rec("online_summary");
  Rec.field("stencil", Spec.name())
      .field("best", R.Best.str())
      .field("trials", R.TrialsRun)
      .field("cached_trials", R.CachedTrials)
      .field("tuning_steps", R.TuningSteps)
      .field("warmup_steps", R.WarmupSteps)
      .field("tuning_seconds", R.TuningSeconds)
      .emit();
  return R;
}
