//===- service/TuningService.cpp - Long-lived tuning service ---------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/TuningService.h"

#include "arch/MachineModel.h"
#include "codegen/JitCompiler.h"
#include "codegen/SourceEmitter.h"
#include "codegen/VectorFold.h"
#include "ode/Registry.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "tuner/MeasureHarness.h"

#include <cmath>
#include <optional>

using namespace ys;

namespace {

Expected<const MachineModel *> findMachine(const std::string &Name) {
  const MachineModel *M = MachineModel::findBuiltin(Name);
  if (!M)
    return Error::failure(
        format("unknown machine '%s'; try 'machines'", Name.c_str()));
  return M;
}

} // namespace

TuningService::TuningService(ServiceOptions Opts)
    : Options(std::move(Opts)) {
  if (!Options.CachePath.empty())
    Front.absorb(TuningCache::loadOrCreate(Options.CachePath));
}

TuningService::~TuningService() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    ShuttingDown = true;
  }
  QueueCV.notify_all();
  if (Worker.joinable())
    Worker.join(); // The worker drains the queue before exiting, so every
                   // pending waiter still receives its result.
}

Expected<PredictResult> TuningService::predict(const PredictQuery &Q) {
  ModelQueries.fetch_add(1, std::memory_order_relaxed);
  auto SpecOr = resolveStencil(Q.Stencil);
  if (!SpecOr)
    return SpecOr.takeError();
  auto MOr = findMachine(Q.Machine);
  if (!MOr)
    return MOr.takeError();
  const MachineModel &M = **MOr;

  PredictResult R;
  R.Spec = *SpecOr;
  R.MachineName = M.Name;
  R.Config = Q.Config;
  if (!Q.FoldGiven)
    R.Config.VectorFold = VectorFold::select(R.Spec, M);
  R.Cores = Q.Cores ? Q.Cores : 1;
  ECMModel Model(M);
  R.Prediction = Model.predict(R.Spec, Q.Dims, R.Config, R.Cores);

  if (Q.SimCheck)
    simCheck(Q, M, R);
  return R;
}

void TuningService::simCheck(const PredictQuery &Q, const MachineModel &M,
                             PredictResult &R) {
  // Cross-check the model's traffic against the cache simulator.  The
  // sampled fast mode makes this affordable per query; Auto additionally
  // bounds the replay by SimReplayBudgetLups so a predict never stalls
  // behind a production-sized exact replay (it reports "skipped" instead).
  CacheHierarchySim Sim =
      CacheHierarchySim::fromMachine(M, /*PerCoreShare=*/R.Cores > 1);
  StencilTraceRunner Runner(R.Spec, Q.Dims, R.Config);
  unsigned long long FullLups =
      static_cast<unsigned long long>(Q.Dims.lups());
  SimMode Mode = Q.Sim;
  if (R.Config.isTemporal()) {
    // Temporal schedules have no sampled fast path; one macro step
    // replays Depth full sweeps exactly, so that is what the budget must
    // cover.  The model's traffic carries the temporal rescale, so the
    // plain-sweep replay would not be comparable anyway.
    unsigned long long Cost =
        FullLups * static_cast<unsigned long long>(R.Config.WavefrontDepth);
    if (Mode == SimMode::Auto && Cost > Options.SimReplayBudgetLups) {
      R.SimModeUsed = "skipped";
      R.SimNote = format("temporal replay of %llu LUPs exceeds the "
                         "service budget (%llu)",
                         Cost, Options.SimReplayBudgetLups);
      return;
    }
    SimChecks.fetch_add(1, std::memory_order_relaxed);
    R.SimTraffic = Runner.runTemporal(Sim);
  } else {
    StencilTraceRunner::SamplePlan Plan = Runner.planSampled(Sim);
    if (Mode == SimMode::Auto) {
      unsigned long long Cost =
          Plan.UseSampling
              ? static_cast<unsigned long long>(Plan.replayLups())
              : FullLups;
      if (Cost > Options.SimReplayBudgetLups) {
        R.SimModeUsed = "skipped";
        R.SimNote = Plan.UseSampling
                        ? format("sampled replay of %ld LUPs exceeds the "
                                 "service budget (%llu)",
                                 Plan.replayLups(),
                                 Options.SimReplayBudgetLups)
                        : Plan.Reason + "; exact replay exceeds the "
                                        "service budget";
        return;
      }
      Mode = Plan.UseSampling ? SimMode::Sampled : SimMode::Full;
    }
    SimChecks.fetch_add(1, std::memory_order_relaxed);
    // Full replays use two sweeps so the cold first touch is amortized;
    // a sampled replay is steady-state by construction.
    R.SimTraffic = Mode == SimMode::Full ? Runner.run(Sim, 2)
                                         : Runner.run(Sim, 1, Mode);
  }
  R.SimChecked = true;
  R.SimModeUsed = R.SimTraffic.Sampled ? "sampled" : "full";
  R.SimNote = R.SimTraffic.FallbackReason;
  R.SimMemBytesPerLup = R.SimTraffic.BytesPerLup.empty()
                            ? 0
                            : R.SimTraffic.BytesPerLup.back();
  R.ModelMemBytesPerLup = R.Prediction.Traffic.BytesPerLup.empty()
                              ? 0
                              : R.Prediction.Traffic.BytesPerLup.back();
  R.SimDeltaFraction =
      std::abs(R.ModelMemBytesPerLup - R.SimMemBytesPerLup) /
      std::max(R.SimMemBytesPerLup, 1.0);
}

Expected<TuneResult> TuningService::tune(const TuneQuery &Q) {
  ModelQueries.fetch_add(1, std::memory_order_relaxed);
  auto SpecOr = resolveStencil(Q.Stencil);
  if (!SpecOr)
    return SpecOr.takeError();
  auto MOr = findMachine(Q.Machine);
  if (!MOr)
    return MOr.takeError();
  const MachineModel &M = **MOr;

  KernelConfig Base = Q.Config;
  if (!Q.FoldGiven)
    Base.VectorFold = VectorFold::select(*SpecOr, M);

  TuneResult R;
  R.MachineName = M.Name;
  R.Cores = Q.Cores ? Q.Cores : M.CoresPerSocket;
  ECMModel Model(M);
  BlockingSelector Selector(Model);
  R.Analytic = Selector.selectAnalytic(*SpecOr, Q.Dims, Base, -1, R.Cores);
  R.Best = Selector.selectBest(*SpecOr, Q.Dims, Base, true, R.Cores);
  R.Unblocked = Model.predict(*SpecOr, Q.Dims, Base, R.Cores);

  if (Q.Measure) {
    MeasureQuery MQ;
    MQ.Stencil = Q.Stencil;
    MQ.Machine = Q.Machine;
    MQ.Dims = Q.Dims;
    MQ.Config = R.Best.Config;
    auto MeasuredOr = measure(MQ);
    if (!MeasuredOr)
      return MeasuredOr.takeError();
    R.Measured = true;
    R.MeasuredMlups = MeasuredOr->Mlups;
    R.MeasureSource = MeasuredOr->Source;
  }
  return R;
}

Expected<RankResult> TuningService::rank(const RankQuery &Q) {
  RankQueries.fetch_add(1, std::memory_order_relaxed);
  auto TableauOr = tableauByName(Q.Method);
  if (!TableauOr)
    return TableauOr.takeError();
  if (!TableauOr->isExplicit())
    return Error::failure(
        format("'%s' is an implicit PIRK base; ranking integrates explicit "
               "methods",
               TableauOr->Name.c_str()));
  auto MOr = findMachine(Q.Machine);
  if (!MOr)
    return MOr.takeError();
  const MachineModel &M = **MOr;
  auto IvpOr = ivpByName(Q.Ivp, Q.Resolution);
  if (!IvpOr)
    return IvpOr.takeError();
  IVP &Problem = **IvpOr;

  RankResult R;
  R.MachineName = M.Name;
  R.MethodName = TableauOr->Name;
  R.ProblemName = Problem.name();
  R.ProblemDims = Problem.dims();
  R.Cores = Q.Cores ? Q.Cores : 1;
  ECMModel Model(M);
  OffsiteTuner Tuner(Model, R.Cores);
  R.Ranked = Tuner.rank(Tuner.enumerateRK(*TableauOr, Problem), Problem);
  return R;
}

Expected<std::string> TuningService::emitSource(const EmitQuery &Q) {
  EmitQueries.fetch_add(1, std::memory_order_relaxed);
  auto SpecOr = resolveStencil(Q.Stencil);
  if (!SpecOr)
    return SpecOr.takeError();
  SourceEmitter::Options Opts;
  if (Q.DimsGiven)
    Opts.Dims = Q.Dims;
  if (parseKernelBackend(Q.Backend) == KernelBackend::Jit) {
    // The unit the jit backend would compile for the query's grid size.
    JitGeometry G = JitGeometry::forDims(Opts.Dims, SpecOr->radius(),
                                         Q.Config.VectorFold);
    return SourceEmitter::emitJitTranslationUnit(*SpecOr, G);
  }
  // Temporal configs get the slab table for the same grid size.
  return SourceEmitter::emitTranslationUnit(*SpecOr, Q.Config, Opts);
}

Expected<TuningService::TrialJob>
TuningService::prepare(const MeasureQuery &Q) const {
  auto SpecOr = resolveStencil(Q.Stencil);
  if (!SpecOr)
    return SpecOr.takeError();
  auto MOr = findMachine(Q.Machine);
  if (!MOr)
    return MOr.takeError();
  std::string CfgErr = Q.Config.validate();
  if (!CfgErr.empty())
    return Error::failure("invalid kernel config: " + CfgErr);

  std::string Backend;
  if (Q.Backend.empty()) {
    Backend = kernelBackendName(selectKernelBackend());
  } else {
    std::optional<KernelBackend> B = parseKernelBackend(Q.Backend);
    if (!B)
      return Error::failure(
          format("unknown backend '%s' (plan, jit)", Q.Backend.c_str()));
    Backend = kernelBackendName(*B);
  }

  TrialJob Job;
  Job.Spec = *SpecOr;
  Job.Dims = Q.Dims;
  Job.Config = Q.Config;
  Job.Backend = Backend;
  Job.Key = TuningCache::fingerprint(
      Job.Spec, TuningCache::machineId(**MOr), Q.Dims, Q.Config,
      TuningCache::effectiveThreads(Q.Config), Backend);
  Job.HarnessKey = TuningCache::fingerprintRaw(
      TuningCache::canonicalStencil(Job.Spec) + "|" + Q.Dims.str());
  return Job;
}

void TuningService::measureAsync(
    const MeasureQuery &Q, std::function<void(Expected<MeasureResult>)> Done) {
  MeasureRequests.fetch_add(1, std::memory_order_relaxed);
  auto JobOr = prepare(Q);
  if (!JobOr) {
    Done(JobOr.takeError());
    return;
  }
  TrialJob &Job = *JobOr;

  auto Answer = [&](const TuningCache::Entry &E, const char *Source) {
    MeasureResult R;
    R.Mlups = E.Mlups;
    R.SecondsPerStep = E.SecondsPerStep;
    R.Key = Job.Key;
    R.Source = Source;
    Done(std::move(R));
  };

  // Fast path: the sharded front answers without queueing.
  if (std::optional<TuningCache::Entry> E = Front.lookup(Job.Key)) {
    Answer(*E, "cache");
    return;
  }

  // Dedup: coalesce onto an in-flight trial with the same fingerprint, or
  // become the leader and enqueue exactly one.  runTrial inserts into the
  // front before it drops the in-flight entry under InFlightMutex, so a
  // trial that landed since the lookup above shows up in the peek below
  // and is answered as a coalesced result instead of timed a second time.
  bool Leader = false;
  std::optional<TuningCache::Entry> Landed;
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    auto It = InFlightByKey.find(Job.Key);
    if (It != InFlightByKey.end()) {
      Coalesced.fetch_add(1, std::memory_order_relaxed);
      It->second.Waiters.emplace_back(true, std::move(Done));
    } else if ((Landed = Front.peek(Job.Key))) {
      Coalesced.fetch_add(1, std::memory_order_relaxed);
    } else {
      Leader = true;
      InFlightByKey[Job.Key].Waiters.emplace_back(false, std::move(Done));
    }
  }
  if (Landed)
    Answer(*Landed, "coalesced");
  else if (Leader)
    enqueue(std::move(Job));
}

Expected<MeasureResult> TuningService::measure(const MeasureQuery &Q) {
  struct SyncState {
    std::mutex M;
    std::condition_variable CV;
    std::optional<Expected<MeasureResult>> Result;
  };
  auto State = std::make_shared<SyncState>();
  measureAsync(Q, [State](Expected<MeasureResult> R) {
    std::lock_guard<std::mutex> Lock(State->M);
    State->Result = std::move(R);
    State->CV.notify_all();
  });
  std::unique_lock<std::mutex> Lock(State->M);
  State->CV.wait(Lock, [&] { return State->Result.has_value(); });
  return std::move(*State->Result);
}

void TuningService::enqueue(TrialJob Job) {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (!WorkerStarted) {
      WorkerStarted = true;
      Worker = std::thread([this] { workerLoop(); });
    }
    Queue.push_back(std::move(Job));
  }
  QueueCV.notify_one();
}

void TuningService::workerLoop() {
  for (;;) {
    TrialJob Job;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCV.wait(Lock, [&] { return !Queue.empty() || ShuttingDown; });
      if (Queue.empty())
        break; // Shutting down with a drained queue.
      Job = std::move(Queue.front());
      Queue.pop_front();
      WorkerBusy = true;
    }
    runTrial(Job);
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      WorkerBusy = false;
      if (Queue.empty())
        IdleCV.notify_all();
    }
  }
}

void TuningService::runTrial(const TrialJob &Job) {
  double Mlups = 0;
  if (Options.MeasureOverride) {
    Mlups = Options.MeasureOverride(Job.Config);
  } else {
    std::unique_ptr<MeasureHarness> &H = Harnesses[Job.HarnessKey];
    if (!H)
      H = std::make_unique<MeasureHarness>(Job.Spec, Job.Dims,
                                           Options.Repeats,
                                           Options.SweepsPerRepeat);
    H->setBackend(parseKernelBackend(Job.Backend));
    unsigned RunsBefore = H->totalKernelRuns();
    Mlups = H->measure(Job.Config);
    KernelRuns.fetch_add(H->totalKernelRuns() - RunsBefore,
                         std::memory_order_relaxed);
  }
  TimedTrials.fetch_add(1, std::memory_order_relaxed);

  // MLUP/s -> seconds per sweep over these dims.
  double SecondsPerStep =
      Mlups > 0 ? static_cast<double>(Job.Dims.lups()) / (Mlups * 1e6) : 0;

  TuningCache::Entry E;
  E.Key = Job.Key;
  E.Summary =
      Job.Spec.name() + " " + Job.Dims.str() + " " + Job.Config.str();
  E.Mlups = Mlups;
  E.SecondsPerStep = SecondsPerStep;
  E.Repeats = Options.Repeats;
  Front.insert(std::move(E));

  TraceRecord Rec("service_trial");
  Rec.field("key", Job.Key)
      .field("config", Job.Config.str())
      .field("mlups", Mlups)
      .emit();

  // Broadcast to every coalesced waiter (leader included).
  std::vector<std::pair<bool, std::function<void(Expected<MeasureResult>)>>>
      Waiters;
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    auto It = InFlightByKey.find(Job.Key);
    if (It != InFlightByKey.end()) {
      Waiters = std::move(It->second.Waiters);
      InFlightByKey.erase(It);
    }
  }
  for (auto &[WasCoalesced, Done] : Waiters) {
    MeasureResult R;
    R.Mlups = Mlups;
    R.SecondsPerStep = SecondsPerStep;
    R.Key = Job.Key;
    R.Source = WasCoalesced ? "coalesced" : "trial";
    Done(std::move(R));
  }
}

void TuningService::waitIdle() {
  std::unique_lock<std::mutex> Lock(QueueMutex);
  if (!WorkerStarted)
    return;
  IdleCV.wait(Lock, [&] { return Queue.empty() && !WorkerBusy; });
}

ServiceStats TuningService::stats() const {
  ServiceStats S;
  S.ModelQueries = ModelQueries.load(std::memory_order_relaxed);
  S.RankQueries = RankQueries.load(std::memory_order_relaxed);
  S.EmitQueries = EmitQueries.load(std::memory_order_relaxed);
  S.MeasureRequests = MeasureRequests.load(std::memory_order_relaxed);
  S.CacheHits = Front.hits();
  S.CacheMisses = Front.misses();
  S.TimedTrials = TimedTrials.load(std::memory_order_relaxed);
  S.Coalesced = Coalesced.load(std::memory_order_relaxed);
  S.KernelRuns = KernelRuns.load(std::memory_order_relaxed);
  S.SimChecks = SimChecks.load(std::memory_order_relaxed);
  S.CacheEntries = Front.size();
  return S;
}

Error TuningService::saveCache() {
  if (Options.CachePath.empty())
    return Error::failure("tuning service has no cache path configured");
  return saveCache(Options.CachePath);
}

Error TuningService::saveCache(const std::string &Path) {
  return Front.snapshot().saveFile(Path);
}
