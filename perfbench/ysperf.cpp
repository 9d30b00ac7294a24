//===- perfbench/ysperf.cpp - Repository benchmark workloads --------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// One process runs one workload through the library's public entry points
/// and prints its metrics; run.py builds this binary, isolates its caches
/// and turns the RESULT line into the benchmark's JSON result line.
///
///   ysperf --workload <stencil-stream|halo-ranks|ode-heat|model-queries>
///          --seed <n> --seconds <s> --trace <0|1> [--toy] [--spans <file>]
///
/// Every workload runs the same three phases:
///
///  * setup  — repeated (see Run::wantSetup; the first one is timed from
///             process start); setup_s is the median;
///  * timed  — a closed loop of operations ("ops") for --seconds;
///  * check  — untimed output checks against an oracle; a failed check or
///             a failed op counts in `failed`.
///
/// With --trace 1 the same run records spans around every call into a
/// library layer (the benchmark's own code only; nothing inside src/ is
/// instrumented), then runs the extra layer probes the per-layer metrics
/// need (default-config comparison, serial exchange, host bandwidth, ...)
/// after the timed loop, so the loop itself stays comparable with an
/// untraced run.  Spans are kept in memory and written to --spans at exit.
///
/// --toy shrinks every size so the self-test finishes in seconds.
///
//===----------------------------------------------------------------------===//

#include "codegen/DomainDecomposition.h"
#include "codegen/JitCompiler.h"
#include "codegen/KernelExecutor.h"
#include "ecm/ECMModel.h"
#include "offsite/Offsite.h"
#include "ode/ExplicitRK.h"
#include "ode/IVP.h"
#include "service/TuningService.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "tuner/TuningCache.h"
#include "verify/ReferenceInterpreter.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace ys;

namespace {

//===----------------------------------------------------------------------===//
// Clock, statistics, host facts
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

/// Process epoch: main() stores the clock here before anything else runs.
Clock::time_point Epoch;

double nowSeconds() {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

/// Percentile with linear interpolation between closest ranks (numpy's
/// default); 0 for an empty sample.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return percentile(V, 50); }

/// Peak resident set of this process (VmHWM), in MB.
double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // kB -> MB
  return 0.0;
}

std::string readFirstLine(const std::string &Path) {
  std::ifstream F(Path);
  std::string Line;
  std::getline(F, Line);
  return Line;
}

/// Size of the highest cache level cpu0 reports in sysfs, in bytes.
unsigned long long llcBytes() {
  unsigned long long Best = 0;
  int BestLevel = -1;
  for (int I = 0; I < 8; ++I) {
    std::string Dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                      std::to_string(I) + "/";
    std::string Level = readFirstLine(Dir + "level");
    std::string Size = readFirstLine(Dir + "size");
    if (Level.empty() || Size.empty())
      continue;
    unsigned long long Bytes = std::strtoull(Size.c_str(), nullptr, 10);
    char Unit = Size.back();
    if (Unit == 'K')
      Bytes <<= 10;
    else if (Unit == 'M')
      Bytes <<= 20;
    int L = std::atoi(Level.c_str());
    if (L > BestLevel) {
      BestLevel = L;
      Best = Bytes;
    }
  }
  return Best;
}

/// True when the interiors of \p A and \p B hold the same bits (NaNs
/// included, unlike a max-|diff| comparison).
bool bitIdentical(const Grid &A, const Grid &B) {
  if (!(A.dims() == B.dims()))
    return false;
  const GridDims &D = A.dims();
  for (long Z = 0; Z < D.Nz; ++Z)
    for (long Y = 0; Y < D.Ny; ++Y)
      for (long X = 0; X < D.Nx; ++X) {
        double VA = A.at(X, Y, Z), VB = B.at(X, Y, Z);
        if (std::memcmp(&VA, &VB, sizeof(double)) != 0)
          return false;
      }
  return true;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder.  Spans nest through an explicit stack (all
/// calls into the library are made from the main thread), carry the id of
/// the request/op they belong to, and are written out once at exit.
class Tracer {
public:
  struct Span {
    unsigned Id = 0;
    unsigned Parent = 0; ///< 0 = root.
    std::string Name;
    double Start = 0, End = 0; ///< Seconds since process start.
    unsigned long long Req = 0; ///< Workload op id; 0 = setup/probe work.
  };

  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  unsigned begin(const char *Name, unsigned long long Req) {
    if (!On)
      return 0;
    Span S;
    S.Id = static_cast<unsigned>(Spans.size()) + 1;
    S.Parent = Stack.empty() ? 0 : Stack.back();
    S.Name = Name;
    S.Req = Req;
    S.Start = nowSeconds();
    Spans.push_back(std::move(S));
    Stack.push_back(Spans.back().Id);
    return Spans.back().Id;
  }

  void end(unsigned Id) {
    if (!On || Id == 0)
      return;
    Spans[Id - 1].End = nowSeconds();
    Stack.pop_back();
  }

  /// Durations (seconds) of every span called \p Name.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (S.Name == Name)
        Out.push_back(S.End - S.Start);
    return Out;
  }

  /// JSON lines: {"id","parent","name","start_s","end_s","req"}.
  bool write(const std::string &Path, const std::string &Workload) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (const Span &S : Spans)
      std::fprintf(F,
                   "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                   "\"start_s\": %.9f, \"end_s\": %.9f, \"req\": %llu, "
                   "\"workload\": \"%s\"}\n",
                   S.Id, S.Parent, S.Name.c_str(), S.Start, S.End, S.Req,
                   Workload.c_str());
    return std::fclose(F) == 0;
  }

private:
  bool On;
  std::vector<Span> Spans;
  std::vector<unsigned> Stack;
};

/// RAII span; a no-op when tracing is off.
class Scope {
public:
  Scope(Tracer &T, const char *Name, unsigned long long Req = 0)
      : T(T), Id(T.begin(Name, Req)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  unsigned Id;
};

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// Every per-layer metric, in print order, with its unit.  A traced run
/// prints all of them; a layer the workload does not run reports 0.
const std::vector<std::pair<const char *, const char *>> &layerMetricList() {
  static const std::vector<std::pair<const char *, const char *>> L = {
      {"stencil.alloc_s", "s"},
      {"codegen.prepare_s", "s"},
      {"codegen.plan_builds", "count"},
      {"codegen.jit_compiles", "count"},
      {"ecm.select_ms", "ms"},
      {"ecm.candidates", "count"},
      {"offsite.rank_ms", "ms"},
      {"codegen.step_ms_p50", "ms"},
      {"codegen.step_ms_p90", "ms"},
      {"codegen.gbs_computed", "GB/s"},
      {"codegen.bw_frac", "ratio"},
      {"host.copy_gbs", "GB/s"},
      {"pool.busy_frac", "ratio"},
      {"pool.steal_frac", "ratio"},
      {"pool.tasks_per_step", "count"},
      {"ecm.model_mlups", "MLUP/s"},
      {"ecm.host_frac", "ratio"},
      {"select.default_mlups", "MLUP/s"},
      {"select.pick_gain", "ratio"},
      {"halo.bytes_per_step", "B"},
      {"halo.rounds_per_step", "count"},
      {"halo.pack_ms", "ms"},
      {"halo.unpack_ms", "ms"},
      {"halo.serial_mlups", "MLUP/s"},
      {"halo.overlap_speedup", "ratio"},
      {"ode.rhs_ms", "ms"},
      {"ode.step_ms_p90", "ms"},
      {"ode.default_step_ms_p50", "ms"},
      {"ode.pick_gain", "ratio"},
      {"offsite.pred_gain", "ratio"},
      {"ode.sweeps_per_step", "count"},
      {"ode.bytes_per_step_computed", "B"},
      {"service.predict_ms_p50", "ms"},
      {"service.tune_ms_p50", "ms"},
      {"service.rank_ms_p50", "ms"},
      {"service.measure_hit_ms_p50", "ms"},
      {"service.predict_sim_ms_p50", "ms"},
      {"cachesim.replay_lups_per_s", "LUP/s"},
      {"cachesim.sampled_frac", "ratio"},
      {"cachesim.replayed_lups", "count"},
      {"service.measure_ms_p50", "ms"},
      {"service.trials", "count"},
      {"service.cache_hits", "count"},
      {"service.sim_checks", "count"},
  };
  return L;
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Toy = false;
  std::string SpanPath;
};

/// Shared state of one workload run.
struct Run {
  /// model-queries runs no kernels of its own, so its pool stays
  /// single-threaded (inline) and the process never holds more busy
  /// threads than nproc.
  explicit Run(const Options &O)
      : O(O), T(O.Trace),
        Threads(std::max(1u, std::thread::hardware_concurrency())),
        Pool(O.Workload == "model-queries" ? 1 : Threads) {}

  const Options &O;
  Tracer T;
  unsigned Threads;
  ThreadPool Pool;

  std::vector<double> SetupSeconds; ///< One per setup repetition.
  std::vector<double> OpSeconds;    ///< One per timed op.
  double TimedWall = 0;             ///< Wall time of the timed loop.
  unsigned long long Attempted = 0;
  unsigned long long Failed = 0;
  bool ChecksPassed = true;

  std::map<std::string, double> Layer; ///< Per-layer metrics.
  /// Workload-specific end-to-end readings (mlups, ode_step_ms_p50,
  /// query_ms_*), printed for humans; the registered metrics are
  /// workload-neutral.
  std::vector<std::tuple<std::string, double, std::string>> Named;

  void header(const std::string &Key, const std::string &Value) {
    std::printf("# %s: %s\n", Key.c_str(), Value.c_str());
  }

  /// Header lines for workloads whose executors are not reachable: the
  /// backend and SIMD target a new executor selects.
  void selectedBackend() {
    header("backend", kernelBackendName(selectKernelBackend()));
    header("planTarget", simdTargetName(selectSimdTarget()));
  }

  /// Counts one output check; prints the failure reason.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      ChecksPassed = false;
      std::printf("CHECK FAILED: %s\n", What.c_str());
    } else {
      std::printf("check ok: %s\n", What.c_str());
    }
  }

  /// Records one setup repetition that started at \p Start (seconds since
  /// process start).
  void setupDone(double Start) { SetupSeconds.push_back(nowSeconds() - Start); }

  /// Setup repeats at least kMinSetups times, then until kSetupBudgetS of
  /// setup time has passed (at most kMaxSetups times): cheap setups get
  /// enough samples for a steady median.
  static constexpr unsigned kMinSetups = 3, kMaxSetups = 40;
  static constexpr double kSetupBudgetS = 2.0;
  bool wantSetup(unsigned Rep) const {
    double Spent = 0;
    for (double S : SetupSeconds)
      Spent += S;
    return Rep < kMinSetups || (Rep < kMaxSetups && Spent < kSetupBudgetS);
  }

  /// Runs \p Op in a closed loop until --seconds have passed (and at least
  /// \p MinOps ops ran); \p Op gets the op index and returns false on a
  /// failed op.
  template <typename Fn> void timedLoop(unsigned MinOps, Fn &&Op) {
    double Start = nowSeconds();
    for (unsigned long long I = 0;; ++I) {
      double T0 = nowSeconds();
      bool Ok = Op(I);
      double T1 = nowSeconds();
      OpSeconds.push_back(T1 - T0);
      ++Attempted;
      if (!Ok)
        ++Failed;
      if (T1 - Start >= O.Seconds && OpSeconds.size() >= MinOps)
        break;
    }
    TimedWall = nowSeconds() - Start;
  }

  /// Host speed comes in phases: other tenants of the machine slow the
  /// same code 1.5-2x for seconds to minutes (see README.md).  The
  /// registered op time is therefore read over windows: the timed ops are
  /// cut into consecutive windows, and op_ms_win is the WindowPct-th
  /// percentile of the windows' median op times.  At 10 it reads the run's
  /// quiet windows: a change to the code moves every window, a slow phase
  /// only the windows it covers.
  ///
  /// A window holds WindowOps ops, or (WindowOps == 0) the ops up to the
  /// first one that ends kWindowS after the window began.  A trailing
  /// partial window is dropped unless it is the only one.
  unsigned WindowOps = 0;
  double WindowPct = 10;
  static constexpr double kWindowS = 1.0;

  std::vector<std::vector<double>> windows() const {
    std::vector<std::vector<double>> W(1);
    double Sum = 0;
    for (double S : OpSeconds) {
      W.back().push_back(S);
      Sum += S;
      if (WindowOps ? W.back().size() == WindowOps : Sum >= kWindowS) {
        W.emplace_back();
        Sum = 0;
      }
    }
    if (W.size() > 1)
      W.pop_back();
    return W;
  }

  /// Median op time of the windows, in ms, at WindowPct.
  double windowOpMs() const {
    std::vector<double> M;
    for (const std::vector<double> &W : windows())
      M.push_back(median(W));
    return percentile(M, WindowPct) * 1e3;
  }

  void setLayer(const std::string &Name, double Value) { Layer[Name] = Value; }

  /// Median of the spans named \p Name, in ms (0 when none ran).
  double spanMs(const std::string &Name) const {
    return median(T.durations(Name)) * 1e3;
  }

  void named(const std::string &Name, double Value, const std::string &Unit) {
    Named.emplace_back(Name, Value, Unit);
  }

  /// Pool counters over the timed loop.
  void poolMetrics(const PoolStats &S, double Wall, double Steps) {
    double Busy = S.totalBusySeconds();
    setLayer("pool.busy_frac", Wall > 0 ? Busy / (Threads * Wall) : 0);
    setLayer("pool.steal_frac",
             S.totalRun() ? double(S.totalStolen()) / double(S.totalRun())
                          : 0);
    setLayer("pool.tasks_per_step", Steps > 0 ? S.totalRun() / Steps : 0);
  }
};

/// Threaded copy loop over two arrays of \p N doubles: the host's
/// sustainable memory bandwidth in GB/s (read + write bytes), median of
/// \p Reps passes.
double hostCopyGbs(double *A, double *B, size_t N, unsigned Threads,
                   int Reps) {
  std::vector<double> Rates;
  for (int R = 0; R < Reps; ++R) {
    auto T0 = Clock::now();
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < Threads; ++W)
      Workers.emplace_back([=] {
        size_t Lo = N * W / Threads, Hi = N * (W + 1) / Threads;
        std::memcpy(B + Lo, A + Lo, (Hi - Lo) * sizeof(double));
      });
    for (std::thread &W : Workers)
      W.join();
    double S = std::chrono::duration<double>(Clock::now() - T0).count();
    Rates.push_back(2.0 * N * sizeof(double) / S / 1e9);
  }
  return median(Rates);
}

/// Runs the copy probe on its own two arrays of at least 4x the LLC.
void probeHostBandwidth(Run &R) {
  Scope S(R.T, "host.copy");
  size_t N = std::max<size_t>(4 * llcBytes() / sizeof(double), 1 << 20);
  if (R.O.Toy)
    N = 1 << 20;
  std::vector<double> A(N, 1.0), B(N, 0.0);
  R.setLayer("host.copy_gbs", hostCopyGbs(A.data(), B.data(), N, R.Threads, 5));
}

//===----------------------------------------------------------------------===//
// stencil-stream: heat3d out of cache, tune()'s pick, closed loop of steps
//===----------------------------------------------------------------------===//

int runStencilStream(Run &R) {
  const GridDims Dims =
      R.O.Toy ? GridDims{64, 64, 32} : GridDims{512, 512, 256};
  const StencilSpec Spec = StencilSpec::heat3d();
  const int Halo = std::max(1, Spec.radius());

  ServiceOptions SO;
  SO.CachePath = TuningCache::envPath();
  TuningService Service(SO);

  KernelConfig Pick;
  ECMPrediction PickPred;
  std::unique_ptr<Grid> U, V;
  std::unique_ptr<KernelExecutor> Exec;
  for (unsigned Rep = 0; R.wantSetup(Rep); ++Rep) {
    Exec.reset();
    U.reset();
    V.reset();
    double Start = Rep == 0 ? 0.0 : nowSeconds();
    Scope Setup(R.T, "setup");
    {
      Scope S(R.T, "ecm.tune");
      TuneQuery Q;
      Q.Stencil = "heat3d";
      Q.Dims = Dims;
      Q.Cores = 4;
      auto Res = Service.tune(Q);
      if (!Res) {
        std::printf("tune failed: %s\n", Res.takeError().message().c_str());
        return 1;
      }
      Pick = Res->Best.Config;
      Pick.Threads = R.Threads;
      PickPred = Res->Best.Prediction;
      R.setLayer("ecm.candidates", Res->Best.CandidatesEvaluated);
    }
    {
      Scope S(R.T, "stencil.alloc");
      BlockSize B = Pick.Block.resolved(Dims);
      U = std::make_unique<Grid>(Dims, Halo, Pick.VectorFold, &R.Pool, B.Z,
                                 B.Y);
      V = std::make_unique<Grid>(Dims, Halo, Pick.VectorFold, &R.Pool, B.Z,
                                 B.Y);
      Rng Rand(R.O.Seed);
      U->fillRandom(Rand);
      V->copyHaloFrom(*U);
    }
    Exec = std::make_unique<KernelExecutor>(Spec, Pick);
    {
      Scope S(R.T, "codegen.prepare");
      Exec->prepare(*U);
    }
    {
      Scope S(R.T, "codegen.warmup");
      Exec->runTimeSteps(*U, *V, 1, &R.Pool);
    }
    R.setupDone(Start);
  }

  R.header("workload.config", Pick.str());
  R.header("grid", Dims.str());
  R.header("activeBackend", kernelBackendName(Exec->activeBackend()));
  R.header("planTarget", simdTargetName(Exec->planTarget()));

  // One op = one runTimeSteps call; temporal picks need their depth.
  const int StepsPerOp = Pick.isTemporal() ? Pick.WavefrontDepth : 1;
  const double LupsPerOp = double(Dims.lups()) * StepsPerOp;
  R.Pool.resetStats();
  R.timedLoop(3, [&](unsigned long long I) {
    Scope S(R.T, "codegen.runTimeSteps", I + 1);
    Exec->runTimeSteps(*U, *V, StepsPerOp, &R.Pool);
    return true;
  });
  PoolStats PS = R.Pool.stats();
  double Steps = double(R.OpSeconds.size()) * StepsPerOp;
  double Mlups = LupsPerOp * R.OpSeconds.size() / R.TimedWall / 1e6;
  R.named("mlups", Mlups, "MLUP/s");

  {
    Scope S(R.T, "check");
    double Sum = U->interiorSum();
    R.check(std::isfinite(Sum), "stencil-stream full-grid checksum finite");
    // The identical config on a small grid against the reference
    // interpreter, bit for bit.
    GridDims Small{64, 32, 24};
    Grid A(Small, Halo, Pick.VectorFold), B(Small, Halo, Pick.VectorFold);
    Rng Rand(R.O.Seed + 1);
    A.fillRandom(Rand);
    B.copyHaloFrom(A);
    Grid Ref(Small, Halo);
    Ref.copyInteriorFrom(A);
    KernelExecutor Small1(Spec, Pick);
    Small1.runTimeSteps(A, B, 3 * StepsPerOp, &R.Pool);
    ReferenceInterpreter(Spec).runTimeSteps(Ref, 3 * StepsPerOp);
    R.check(bitIdentical(A, Ref),
            "stencil-stream pick matches ReferenceInterpreter bit for bit");
  }

  if (!R.T.on())
    return 0;

  // -- Per-layer probes (traced run only) -------------------------------
  R.setLayer("stencil.alloc_s", R.spanMs("stencil.alloc") / 1e3);
  R.setLayer("codegen.prepare_s", R.spanMs("codegen.prepare") / 1e3);
  R.setLayer("codegen.plan_builds", Exec->planBuilds());
  R.setLayer("ecm.select_ms", R.spanMs("ecm.tune"));
  std::vector<double> StepMs;
  for (double S : R.OpSeconds)
    StepMs.push_back(S * 1e3 / StepsPerOp);
  R.setLayer("codegen.step_ms_p50", median(StepMs));
  R.setLayer("codegen.step_ms_p90", percentile(StepMs, 90));
  R.poolMetrics(PS, R.TimedWall, Steps);
  double ModelMlups = PickPred.mlupsAtCores(R.Threads);
  R.setLayer("ecm.model_mlups", ModelMlups);
  R.setLayer("ecm.host_frac", ModelMlups > 0 ? Mlups / ModelMlups : 0);
  double MemBpl = PickPred.Traffic.BytesPerLup.empty()
                      ? 0
                      : PickPred.Traffic.BytesPerLup.back();
  R.setLayer("codegen.gbs_computed", Mlups * 1e6 * MemBpl / 1e9);

  {
    // Copy probe between the two stream grids (each >= 4x the LLC).
    size_t N = std::min(U->allocElems(), V->allocElems());
    if (N * sizeof(double) >= 4 * llcBytes()) {
      Scope S(R.T, "host.copy");
      R.setLayer("host.copy_gbs",
                 hostCopyGbs(U->data(), V->data(), N, R.Threads, 5));
    } else {
      probeHostBandwidth(R);
    }
  }
  R.setLayer("codegen.bw_frac",
             R.Layer["codegen.gbs_computed"] / R.Layer["host.copy_gbs"]);
  // The pick's grids go before the default's arrive: one pair at a time.
  Exec.reset();
  U.reset();
  V.reset();
  {
    // The same seeded grid and loop under the default KernelConfig.
    Scope S(R.T, "select.default");
    KernelConfig Default;
    Default.Threads = R.Threads;
    Grid DU(Dims, Halo, Default.VectorFold, &R.Pool);
    Grid DV(Dims, Halo, Default.VectorFold, &R.Pool);
    Rng Rand(R.O.Seed);
    DU.fillRandom(Rand);
    DV.copyHaloFrom(DU);
    KernelExecutor DExec(Spec, Default);
    DExec.runTimeSteps(DU, DV, 1, &R.Pool);
    std::vector<double> DefMs;
    double Start = nowSeconds();
    while (DefMs.size() < 3 || nowSeconds() - Start < R.O.Seconds / 3) {
      Scope Op(R.T, "codegen.runTimeSteps.default");
      double T0 = nowSeconds();
      DExec.runTimeSteps(DU, DV, 1, &R.Pool);
      DefMs.push_back((nowSeconds() - T0) * 1e3);
    }
    double DefMlups = Dims.lups() / (median(DefMs) / 1e3) / 1e6;
    R.setLayer("select.default_mlups", DefMlups);
    R.setLayer("select.pick_gain", LupsPerOp / median(R.OpSeconds) / 1e6 /
                                       DefMlups);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// halo-ranks: 4 z-slab ranks, deep halo 2, overlapped exchange
//===----------------------------------------------------------------------===//

int runHaloRanks(Run &R) {
  const GridDims Dims = R.O.Toy ? GridDims{32, 32, 16} : GridDims{128, 128, 64};
  const StencilSpec Spec = StencilSpec::heat3d();
  const int Radius = std::max(1, Spec.radius());
  const unsigned Ranks = 4;
  const int HaloDepth = 2 * Radius;

  KernelConfig Cfg;
  Cfg.Sched = Schedule::Wavefront;
  Cfg.WavefrontDepth = 2;
  Cfg.Ranks = Ranks;
  Cfg.Threads = R.Threads;

  std::unique_ptr<Grid> Global;
  std::unique_ptr<DecomposedGrid> U, V;
  std::unique_ptr<DistributedStepper> Stepper;
  int StepsPerOp = 0;
  for (unsigned Rep = 0; R.wantSetup(Rep); ++Rep) {
    Stepper.reset();
    U.reset();
    V.reset();
    Global.reset();
    double Start = Rep == 0 ? 0.0 : nowSeconds();
    Scope Setup(R.T, "setup");
    {
      Scope S(R.T, "stencil.alloc");
      Global = std::make_unique<Grid>(Dims, Radius);
      Rng Rand(R.O.Seed);
      Global->fillRandom(Rand);
      U = std::make_unique<DecomposedGrid>(Dims, Ranks, HaloDepth);
      V = std::make_unique<DecomposedGrid>(Dims, Ranks, HaloDepth);
      U->scatter(*Global);
      V->scatter(*Global);
    }
    Stepper = std::make_unique<DistributedStepper>(Spec, Cfg);
    Stepper->setExchangeMode(ExchangeMode::Overlapped);
    StepsPerOp = Stepper->stepsPerExchange(HaloDepth);
    {
      // The first call builds every rank's kernel plan.
      Scope S(R.T, "codegen.prepare");
      Stepper->runTimeSteps(*U, *V, StepsPerOp, &R.Pool);
    }
    R.setupDone(Start);
  }
  R.header("workload.config", Cfg.str() + " exchange=overlapped halo=" +
                                  std::to_string(HaloDepth));
  R.header("grid", Dims.str());
  R.selectedBackend();

  const double LupsPerOp = double(Dims.lups()) * StepsPerOp;
  unsigned long long Bytes0 =
      U->haloBytesExchanged() + V->haloBytesExchanged();
  unsigned long long Rounds0 = Stepper->exchangeRounds();
  R.Pool.resetStats();
  // Here op time moves between two levels (about 12 and 20 ms per op on
  // the 4-vCPU host README.md describes): the slow level holds most
  // windows, the fast one comes and goes.  The median window reads the
  // usual level.
  R.WindowPct = 50;
  R.timedLoop(10, [&](unsigned long long I) {
    Scope S(R.T, "codegen.DistributedStepper.runTimeSteps", I + 1);
    Stepper->runTimeSteps(*U, *V, StepsPerOp, &R.Pool);
    return true;
  });
  PoolStats PS = R.Pool.stats();
  double Steps = double(R.OpSeconds.size()) * StepsPerOp;
  double Mlups = LupsPerOp * R.OpSeconds.size() / R.TimedWall / 1e6;
  R.named("mlups", Mlups, "MLUP/s");
  unsigned long long Bytes =
      U->haloBytesExchanged() + V->haloBytesExchanged() - Bytes0;
  unsigned long long Rounds = Stepper->exchangeRounds() - Rounds0;

  {
    Scope S(R.T, "check");
    Grid Out(Dims, Radius);
    U->gather(Out);
    R.check(std::isfinite(Out.interiorSum()), "halo-ranks checksum finite");
    // Fresh decomposition of the seeded grid, gathered after a few
    // macro steps, against the monolithic executor.
    const int CheckSteps = 4 * StepsPerOp;
    DecomposedGrid CU(Dims, Ranks, HaloDepth), CV(Dims, Ranks, HaloDepth);
    CU.scatter(*Global);
    CV.scatter(*Global);
    DistributedStepper CS(Spec, Cfg);
    CS.setExchangeMode(ExchangeMode::Overlapped);
    CS.runTimeSteps(CU, CV, CheckSteps, &R.Pool);
    Grid Gathered(Dims, Radius);
    CU.gather(Gathered);
    KernelConfig MonoCfg = Cfg;
    MonoCfg.Ranks = 1;
    MonoCfg.Threads = 1;
    Grid Mono(Dims, Radius), Scratch(Dims, Radius);
    Mono.copyInteriorFrom(*Global);
    Scratch.copyHaloFrom(Mono);
    KernelExecutor(Spec, MonoCfg).runTimeSteps(Mono, Scratch, CheckSteps);
    R.check(bitIdentical(Gathered, Mono),
            "halo-ranks gathered ranks match monolithic runTimeSteps bit for "
            "bit");
  }

  if (!R.T.on())
    return 0;

  R.setLayer("stencil.alloc_s", R.spanMs("stencil.alloc") / 1e3);
  R.setLayer("codegen.prepare_s", R.spanMs("codegen.prepare") / 1e3);
  std::vector<double> StepMs;
  for (double S : R.OpSeconds)
    StepMs.push_back(S * 1e3 / StepsPerOp);
  R.setLayer("codegen.step_ms_p50", median(StepMs));
  R.setLayer("codegen.step_ms_p90", percentile(StepMs, 90));
  R.poolMetrics(PS, R.TimedWall, Steps);
  R.setLayer("halo.bytes_per_step", Bytes / Steps);
  R.setLayer("halo.rounds_per_step", Rounds / Steps);

  MachineModel M = MachineModel::cascadeLakeSP();
  ECMModel Model(M);
  ECMPrediction Pred;
  {
    Scope S(R.T, "ecm.predict");
    Pred = Model.predict(Spec, Dims, Cfg, R.Threads);
  }
  double ModelMlups = Pred.mlupsAtCores(R.Threads);
  R.setLayer("ecm.model_mlups", ModelMlups);
  R.setLayer("ecm.host_frac", ModelMlups > 0 ? Mlups / ModelMlups : 0);
  double MemBpl =
      Pred.Traffic.BytesPerLup.empty() ? 0 : Pred.Traffic.BytesPerLup.back();
  R.setLayer("codegen.gbs_computed", Mlups * 1e6 * MemBpl / 1e9);

  {
    // packHalos alone, and every unpackRun alone, per exchange.
    std::vector<double> Pack, Unpack;
    for (int I = 0; I < 50; ++I) {
      double T0 = nowSeconds();
      {
        Scope S(R.T, "halo.packHalos");
        U->packHalos(&R.Pool);
      }
      double T1 = nowSeconds();
      {
        Scope S(R.T, "halo.unpackRuns");
        for (size_t Run = 0; Run < U->numCopyRuns(); ++Run)
          U->unpackRun(Run);
      }
      Pack.push_back((T1 - T0) * 1e3);
      Unpack.push_back((nowSeconds() - T1) * 1e3);
    }
    R.setLayer("halo.pack_ms", median(Pack));
    R.setLayer("halo.unpack_ms", median(Unpack));
  }
  {
    // The serial exchange on the same grids.
    Scope S(R.T, "halo.serial");
    DistributedStepper Serial(Spec, Cfg);
    Serial.setExchangeMode(ExchangeMode::Serial);
    Serial.runTimeSteps(*U, *V, StepsPerOp, &R.Pool);
    std::vector<double> Ms;
    double Start = nowSeconds();
    while (Ms.size() < 10 || nowSeconds() - Start < R.O.Seconds / 3) {
      Scope Op(R.T, "codegen.DistributedStepper.runTimeSteps.serial");
      double T0 = nowSeconds();
      Serial.runTimeSteps(*U, *V, StepsPerOp, &R.Pool);
      Ms.push_back(nowSeconds() - T0);
    }
    double SerialMlups = LupsPerOp / median(Ms) / 1e6;
    R.setLayer("halo.serial_mlups", SerialMlups);
    R.setLayer("halo.overlap_speedup", median(Ms) / median(R.OpSeconds));
  }
  probeHostBandwidth(R);
  R.setLayer("codegen.bw_frac",
             R.Layer["codegen.gbs_computed"] / R.Layer["host.copy_gbs"]);
  return 0;
}

//===----------------------------------------------------------------------===//
// ode-heat: RK4 on Heat3DIVP(96), Offsite's top-ranked variant
//===----------------------------------------------------------------------===//

int runOdeHeat(Run &R) {
  const long N = R.O.Toy ? 24 : 96;
  Heat3DIVP Problem(N);
  const ButcherTableau Method = ButcherTableau::classicRK4();
  MachineModel M = MachineModel::cascadeLakeSP();
  ECMModel Model(M);
  OffsiteTuner Tuner(Model, 4);
  const double H = Problem.suggestedDt();

  std::vector<ODEVariant> Variants;
  std::vector<VariantPrediction> Ranked;
  ODEVariant Pick;
  std::unique_ptr<ExplicitRKIntegrator> Integ;
  std::unique_ptr<Grid> Y;
  std::unique_ptr<RKWorkspace> WS;
  double T = 0;
  auto Seeded = [&](Grid &G) {
    Rng Rand(R.O.Seed);
    G.fillRandom(Rand);
  };
  for (unsigned Rep = 0; R.wantSetup(Rep); ++Rep) {
    Integ.reset();
    WS.reset();
    Y.reset();
    double Start = Rep == 0 ? 0.0 : nowSeconds();
    Scope Setup(R.T, "setup");
    {
      Scope S(R.T, "offsite.rank");
      Variants = Tuner.enumerateRK(Method, Problem);
      Ranked = Tuner.rank(Variants, Problem);
    }
    if (Ranked.empty()) {
      std::printf("offsite ranked no variants\n");
      return 1;
    }
    Pick = Ranked.front().Variant;
    Pick.Config.Threads = R.Threads;
    {
      Scope S(R.T, "stencil.alloc");
      Y = std::make_unique<Grid>(Problem.dims(), Problem.halo(),
                                 Pick.Config.VectorFold);
      Seeded(*Y);
      WS = std::make_unique<RKWorkspace>();
    }
    Integ = std::make_unique<ExplicitRKIntegrator>(Pick.Tableau, Pick.Variant,
                                                   Pick.Config);
    {
      Scope S(R.T, "codegen.prepare");
      Integ->prepareWorkspace(Problem, *WS);
    }
    {
      Scope S(R.T, "ode.warmup");
      T = 0;
      Integ->step(Problem, T, H, *Y, *WS, &R.Pool);
      T += H;
    }
    R.setupDone(Start);
  }
  R.header("workload.config", Pick.Name + " " + Pick.Config.str());
  R.header("problem", Problem.name() + " " + Problem.dims().str());
  R.selectedBackend();

  R.Pool.resetStats();
  R.timedLoop(10, [&](unsigned long long I) {
    Scope S(R.T, "ode.step", I + 1);
    Integ->step(Problem, T, H, *Y, *WS, &R.Pool);
    T += H;
    return true;
  });
  PoolStats PS = R.Pool.stats();
  double StepMsP50 = median(R.OpSeconds) * 1e3;
  R.named("ode_step_ms_p50", StepMsP50, "ms");

  // The stage-separate variant with the pick's kernel configuration.
  ODEVariant Separate = Pick;
  Separate.Variant = RKVariant::StageSeparate;
  {
    Scope S(R.T, "check");
    R.check(std::isfinite(Y->interiorSum()), "ode-heat state finite");
    Grid A(Problem.dims(), Problem.halo(), Pick.Config.VectorFold);
    Grid B(Problem.dims(), Problem.halo(), Pick.Config.VectorFold);
    Seeded(A);
    Seeded(B);
    RKWorkspace WA, WB;
    ExplicitRKIntegrator IA(Pick.Tableau, Pick.Variant, Pick.Config);
    ExplicitRKIntegrator IB(Separate.Tableau, Separate.Variant,
                            Separate.Config);
    IA.integrate(Problem, 0.0, H, 3, A, WA, &R.Pool);
    IB.integrate(Problem, 0.0, H, 3, B, WB, &R.Pool);
    R.check(bitIdentical(A, B), "ode-heat pick '" + Pick.Name +
                                    "' matches stage-separate bit for bit");
  }

  if (!R.T.on())
    return 0;

  R.setLayer("stencil.alloc_s", R.spanMs("stencil.alloc") / 1e3);
  R.setLayer("codegen.prepare_s", R.spanMs("codegen.prepare") / 1e3);
  R.setLayer("offsite.rank_ms", R.spanMs("offsite.rank"));
  R.setLayer("ecm.candidates", Variants.size());
  R.setLayer("ode.step_ms_p90", percentile(R.OpSeconds, 90) * 1e3);
  R.poolMetrics(PS, R.TimedWall, R.OpSeconds.size());
  const VariantPrediction &PickPred = Ranked.front();
  const double Lups = double(Problem.dims().lups());
  R.setLayer("ode.sweeps_per_step", PickPred.SweepsPerStep);
  double Bytes = 0;
  for (const RKStepStructure::Sweep &Sw :
       Integ->stepStructure(Problem).Sweeps)
    Bytes += double(Sw.gridsTouched()) * Lups * sizeof(double);
  R.setLayer("ode.bytes_per_step_computed", Bytes);
  R.setLayer("ecm.model_mlups", Lups / PickPred.SecondsPerStep / 1e6);
  R.setLayer("ecm.host_frac", PickPred.SecondsPerStep * 1e3 / StepMsP50);

  // The default (first enumerated) variant, predicted and measured.
  const ODEVariant &Default = Variants.front();
  for (const VariantPrediction &P : Ranked)
    if (P.Variant.Name == Default.Name)
      R.setLayer("offsite.pred_gain",
                 P.SecondsPerStep / PickPred.SecondsPerStep);
  {
    Scope S(R.T, "ode.default");
    KernelConfig DC = Default.Config;
    DC.Threads = R.Threads;
    ExplicitRKIntegrator DI(Default.Tableau, Default.Variant, DC);
    Grid DY(Problem.dims(), Problem.halo(), DC.VectorFold);
    Seeded(DY);
    RKWorkspace DW;
    DI.prepareWorkspace(Problem, DW);
    DI.step(Problem, 0.0, H, DY, DW, &R.Pool);
    std::vector<double> Ms;
    double Start = nowSeconds(), DT = H;
    while (Ms.size() < 10 || nowSeconds() - Start < R.O.Seconds / 3) {
      Scope Op(R.T, "ode.step.default");
      double T0 = nowSeconds();
      DI.step(Problem, DT, H, DY, DW, &R.Pool);
      Ms.push_back((nowSeconds() - T0) * 1e3);
      DT += H;
    }
    R.setLayer("ode.default_step_ms_p50", median(Ms));
    R.setLayer("ode.pick_gain", median(Ms) / StepMsP50);
  }
  {
    // IVP::evalRHS alone on the current state.
    Grid Out(Problem.dims(), Problem.halo(), Pick.Config.VectorFold);
    std::vector<double> Ms;
    for (int I = 0; I < 10; ++I) {
      Scope S(R.T, "ode.evalRHS");
      double T0 = nowSeconds();
      Problem.evalRHS(T, *Y, Out);
      Ms.push_back((nowSeconds() - T0) * 1e3);
    }
    R.setLayer("ode.rhs_ms", median(Ms));
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// model-queries: one closed-loop client against one TuningService
//===----------------------------------------------------------------------===//

enum class QueryKind {
  PredictSim,
  Predict,
  Tune,
  Rank,
  MeasureNew,
  MeasureRepeat
};

const char *queryKindName(QueryKind K) {
  switch (K) {
  case QueryKind::PredictSim:
    return "service.predict_sim";
  case QueryKind::Predict:
    return "service.predict";
  case QueryKind::Tune:
    return "service.tune";
  case QueryKind::Rank:
    return "service.rank";
  case QueryKind::MeasureNew:
    return "service.measure";
  case QueryKind::MeasureRepeat:
    return "service.measure_hit";
  }
  return "?";
}

/// The seeded query stream.  Queries come in blocks of 100 with the mix's
/// exact counts (2 sim-checked predicts, 48 predicts, 25 tunes, 15 ranks,
/// 5 new and 5 repeated measures), shuffled within the block, so every run
/// sees the same mix whatever its length.
class QueryStream {
public:
  QueryStream(uint64_t Seed, bool Toy) : Rand(Seed), Toy(Toy) {}

  QueryKind nextKind() {
    if (Block.empty()) {
      auto Add = [&](QueryKind K, int N) { Block.insert(Block.end(), N, K); };
      Add(QueryKind::PredictSim, 2);
      Add(QueryKind::Predict, 48);
      Add(QueryKind::Tune, 25);
      Add(QueryKind::Rank, 15);
      Add(QueryKind::MeasureNew, 5);
      Add(QueryKind::MeasureRepeat, 5);
      for (size_t I = Block.size() - 1; I > 0; --I)
        std::swap(Block[I], Block[Rand.nextBounded(I + 1)]);
    }
    QueryKind K = Block.back();
    Block.pop_back();
    // A repeat needs an earlier key to repeat.
    if (K == QueryKind::MeasureRepeat && Measured.empty())
      K = QueryKind::MeasureNew;
    return K;
  }

  std::string stencil() {
    static const char *Names[] = {"heat3d", "star3d:2", "box3d:1"};
    return Names[Rand.nextBounded(3)];
  }

  /// Predict/tune grids up to 256x128x64.
  GridDims modelDims() {
    static const long X[] = {64, 128, 192, 256}, Y[] = {32, 64, 96, 128},
                      Z[] = {16, 32, 48, 64};
    if (Toy)
      return {32, 16, long(8 + 8 * Rand.nextBounded(2))};
    return {X[Rand.nextBounded(4)], Y[Rand.nextBounded(4)],
            Z[Rand.nextBounded(4)]};
  }

  /// Sim-checked predicts cycle through the three stencils in a seeded
  /// order (each cycle holds each stencil once) on one 128x64x32 grid.
  /// Balanced cycles keep the tail's make-up the same in every run, so
  /// query_ms_p99 — which falls inside the sim-checked 2% — does not hinge
  /// on how many box3d replays a seed happened to draw.
  std::string simStencil() {
    static const char *Names[] = {"heat3d", "star3d:2", "box3d:1"};
    if (SimCycle.empty()) {
      SimCycle = {0, 1, 2};
      for (size_t I = SimCycle.size() - 1; I > 0; --I)
        std::swap(SimCycle[I], SimCycle[Rand.nextBounded(I + 1)]);
    }
    int Pick = SimCycle.back();
    SimCycle.pop_back();
    return Names[Pick];
  }

  GridDims simDims() const {
    return Toy ? GridDims{32, 16, 8} : GridDims{128, 64, 32};
  }

  RankQuery rank() {
    static const char *Methods[] = {"rk4", "rkf45", "dopri54"};
    static const long Ns[] = {32, 48, 64};
    RankQuery Q;
    Q.Method = Methods[Rand.nextBounded(3)];
    Q.Ivp = "heat3d";
    Q.Resolution = Toy ? 16 : Ns[Rand.nextBounded(3)];
    return Q;
  }

  /// A measure query on a grid up to 32^3 whose key was never measured.
  MeasureQuery measureNew() {
    static const long E[] = {8, 16, 24, 32};
    MeasureQuery Q;
    for (int Attempt = 0; Attempt < 64; ++Attempt) {
      Q.Stencil = stencil();
      Q.Dims = {E[Rand.nextBounded(4)], E[Rand.nextBounded(4)],
                E[Rand.nextBounded(4)]};
      Q.Config = KernelConfig();
      Q.Config.Block.Y = long(4 * Rand.nextBounded(3));
      if (Keys.insert(key(Q)).second)
        break;
    }
    Measured.push_back(Q);
    return Q;
  }

  MeasureQuery measureRepeat() {
    return Measured[Rand.nextBounded(Measured.size())];
  }

private:
  static std::string key(const MeasureQuery &Q) {
    return Q.Stencil + " " + Q.Dims.str() + " " + Q.Config.str();
  }

  Rng Rand;
  bool Toy;
  std::vector<QueryKind> Block;
  std::vector<int> SimCycle;
  std::vector<MeasureQuery> Measured;
  std::set<std::string> Keys;
};

/// Outcome of one query: ok, plus what the cache simulator did.
struct QueryOutcome {
  bool Ok = false;
  bool SimChecked = false;
  bool Sampled = false;
  unsigned long long ReplayedLups = 0;
};

bool positive(double V) { return std::isfinite(V) && V > 0; }

QueryOutcome runQuery(TuningService &Service, QueryStream &QS, QueryKind K) {
  QueryOutcome Out;
  switch (K) {
  case QueryKind::PredictSim:
  case QueryKind::Predict: {
    PredictQuery Q;
    Q.SimCheck = K == QueryKind::PredictSim;
    Q.Stencil = Q.SimCheck ? QS.simStencil() : QS.stencil();
    Q.Dims = Q.SimCheck ? QS.simDims() : QS.modelDims();
    Q.Sim = SimMode::Auto;
    auto Res = Service.predict(Q);
    if (!Res) {
      std::printf("predict error: %s\n", Res.takeError().message().c_str());
      return Out;
    }
    Out.Ok = positive(Res->Prediction.MLupsSingleCore);
    if (Res->SimChecked) {
      Out.SimChecked = true;
      Out.Sampled = Res->SimTraffic.Sampled;
      Out.ReplayedLups = Res->SimTraffic.ReplayedLups;
      Out.Ok = Out.Ok && positive(Res->SimMemBytesPerLup);
    }
    return Out;
  }
  case QueryKind::Tune: {
    TuneQuery Q;
    Q.Stencil = QS.stencil();
    Q.Dims = QS.modelDims();
    Q.Cores = 4;
    auto Res = Service.tune(Q);
    if (!Res) {
      std::printf("tune error: %s\n", Res.takeError().message().c_str());
      return Out;
    }
    Out.Ok = positive(Res->Best.Prediction.mlupsAtCores(Res->Cores));
    return Out;
  }
  case QueryKind::Rank: {
    auto Res = Service.rank(QS.rank());
    if (!Res) {
      std::printf("rank error: %s\n", Res.takeError().message().c_str());
      return Out;
    }
    Out.Ok = !Res->Ranked.empty();
    for (const VariantPrediction &P : Res->Ranked)
      Out.Ok = Out.Ok && positive(P.SecondsPerStep);
    return Out;
  }
  case QueryKind::MeasureNew:
  case QueryKind::MeasureRepeat: {
    MeasureQuery Q =
        K == QueryKind::MeasureNew ? QS.measureNew() : QS.measureRepeat();
    auto Res = Service.measure(Q);
    if (!Res) {
      std::printf("measure error: %s\n", Res.takeError().message().c_str());
      return Out;
    }
    Out.Ok = positive(Res->Mlups) && positive(Res->SecondsPerStep);
    return Out;
  }
  }
  return Out;
}

/// One query of every kind, the measure on a key outside the stream's
/// measure space (so no later "new" measure hits it): runs a cache-sim
/// replay, starts the trial lane and builds a measurement harness.
bool warmUpService(TuningService &Service) {
  PredictQuery P;
  P.Stencil = "heat3d";
  PredictQuery PS = P;
  PS.Dims = {64, 32, 16};
  PS.SimCheck = true;
  TuneQuery T;
  T.Stencil = "heat3d";
  T.Cores = 4;
  RankQuery Rk;
  Rk.Method = "rk4";
  MeasureQuery M;
  M.Stencil = "heat3d";
  M.Dims = {40, 8, 8};
  bool Ok = static_cast<bool>(Service.predict(P));
  Ok = static_cast<bool>(Service.predict(PS)) && Ok;
  Ok = static_cast<bool>(Service.tune(T)) && Ok;
  Ok = static_cast<bool>(Service.rank(Rk)) && Ok;
  Ok = static_cast<bool>(Service.measure(M)) && Ok;
  return Ok;
}

int runModelQueries(Run &R) {
  std::unique_ptr<TuningService> Service;
  std::unique_ptr<QueryStream> QS;
  for (unsigned Rep = 0; R.wantSetup(Rep); ++Rep) {
    QS.reset();
    Service.reset();
    double Start = Rep == 0 ? 0.0 : nowSeconds();
    Scope Setup(R.T, "setup");
    ServiceOptions SO;
    SO.CachePath = TuningCache::envPath();
    Service = std::make_unique<TuningService>(SO);
    QS = std::make_unique<QueryStream>(R.O.Seed, R.O.Toy);
    if (!warmUpService(*Service)) {
      std::printf("service warm-up failed\n");
      return 1;
    }
    R.setupDone(Start);
  }
  R.header("workload.config",
           "closed loop, 1 client; mix per 100: 2 predict(sim=auto) 48 "
           "predict 25 tune 15 rank 10 measure (5 repeat)");
  R.selectedBackend();

  std::map<QueryKind, std::vector<double>> ByKind;
  double SimSeconds = 0;
  unsigned long long ReplayedLups = 0, SimChecked = 0, SampledChecks = 0;
  // Windows of three blocks: the same mix of kinds, and of sim-checked
  // stencils (two full cycles), in every window.
  R.WindowOps = 300;
  R.timedLoop(20, [&](unsigned long long I) {
    QueryKind K = QS->nextKind();
    double T0 = nowSeconds();
    QueryOutcome Out;
    {
      Scope S(R.T, queryKindName(K), I + 1);
      Out = runQuery(*Service, *QS, K);
    }
    double Secs = nowSeconds() - T0;
    ByKind[K].push_back(Secs);
    if (Out.SimChecked) {
      SimSeconds += Secs;
      ReplayedLups += Out.ReplayedLups;
      ++SimChecked;
      SampledChecks += Out.Sampled;
    }
    return Out.Ok;
  });
  R.named("query_ms_p50", median(R.OpSeconds) * 1e3, "ms");
  R.named("query_ms_p99", percentile(R.OpSeconds, 99) * 1e3, "ms");
  R.named("queries", R.OpSeconds.size(), "count");

  if (!R.T.on())
    return 0;

  auto P50 = [&](QueryKind K) { return median(ByKind[K]) * 1e3; };
  R.setLayer("service.predict_ms_p50", P50(QueryKind::Predict));
  R.setLayer("service.predict_sim_ms_p50", P50(QueryKind::PredictSim));
  R.setLayer("service.tune_ms_p50", P50(QueryKind::Tune));
  R.setLayer("service.rank_ms_p50", P50(QueryKind::Rank));
  R.setLayer("service.measure_ms_p50", P50(QueryKind::MeasureNew));
  R.setLayer("service.measure_hit_ms_p50", P50(QueryKind::MeasureRepeat));
  R.setLayer("cachesim.replayed_lups", double(ReplayedLups));
  R.setLayer("cachesim.replay_lups_per_s",
             SimSeconds > 0 ? ReplayedLups / SimSeconds : 0);
  R.setLayer("cachesim.sampled_frac",
             SimChecked ? double(SampledChecks) / SimChecked : 0);
  ServiceStats St = Service->stats();
  R.setLayer("service.trials", double(St.TimedTrials));
  R.setLayer("service.cache_hits", double(St.CacheHits));
  R.setLayer("service.sim_checks", double(St.SimChecks));
  return 0;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (A == "--workload") {
      if (!Value(O.Workload))
        return false;
    } else if (A == "--seed") {
      if (!Value(V))
        return false;
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      if (!Value(V))
        return false;
      O.Seconds = std::atof(V.c_str());
    } else if (A == "--trace") {
      if (!Value(V))
        return false;
      O.Trace = V == "1";
    } else if (A == "--spans") {
      if (!Value(O.SpanPath))
        return false;
    } else if (A == "--toy") {
      O.Toy = true;
    } else {
      return false;
    }
  }
  return !O.Workload.empty() && O.Seconds > 0;
}

void printJsonMetrics(std::FILE *F,
                      const std::vector<std::tuple<std::string, double,
                                                   std::string>> &Ms) {
  std::fprintf(F, "{");
  for (size_t I = 0; I < Ms.size(); ++I)
    std::fprintf(F, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 I ? ", " : "", std::get<0>(Ms[I]).c_str(), std::get<1>(Ms[I]),
                 std::get<2>(Ms[I]).c_str());
  std::fprintf(F, "}");
}

} // namespace

int main(int Argc, char **Argv) {
  Epoch = Clock::now();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: ysperf --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--toy] [--spans <file>]\n");
    return 2;
  }
  for (const char *Var : {"YS_TRACE", "YS_BACKEND", "YS_SIMD", "YS_THREADS"})
    if (std::getenv(Var)) {
      std::fprintf(stderr, "ysperf: refusing to run with %s set\n", Var);
      return 2;
    }

  Run R(O);
  std::printf("# workload: %s\n# seed: %llu\n# seconds: %g\n# trace: %d\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              O.Trace ? 1 : 0);
  R.header("nproc", std::to_string(R.Threads));
  R.header("llc_bytes", std::to_string(llcBytes()));

  int Rc;
  if (O.Workload == "stencil-stream")
    Rc = runStencilStream(R);
  else if (O.Workload == "halo-ranks")
    Rc = runHaloRanks(R);
  else if (O.Workload == "ode-heat")
    Rc = runOdeHeat(R);
  else if (O.Workload == "model-queries")
    Rc = runModelQueries(R);
  else {
    std::fprintf(stderr, "ysperf: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  if (Rc != 0)
    return Rc;

  // -- End-to-end metrics (workload-neutral names) -------------------------
  std::vector<std::tuple<std::string, double, std::string>> E2E = {
      {"setup_s", median(R.SetupSeconds), "s"},
      {"op_ms_win", R.windowOpMs(), "ms"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  // Whole-run readings, slow phases included.
  R.named("op_ms_p50", median(R.OpSeconds) * 1e3, "ms");
  R.named("ops_per_s", R.OpSeconds.size() / R.TimedWall, "1/s");
  for (const auto &[Name, Value, Unit] : E2E)
    R.check(std::isfinite(Value) && Value > 0,
            "end-to-end " + Name + " is a positive number");
  R.named("failed_frac", double(R.Failed) / double(R.Attempted), "ratio");
  std::printf("samples: ops=%zu windows=%zu setups=%zu timed_wall_s=%.3f\n",
              R.OpSeconds.size(), R.windows().size(), R.SetupSeconds.size(),
              R.TimedWall);
  for (const auto &[Name, Value, Unit] : E2E)
    std::printf("metric %s = %.6g %s\n", Name.c_str(), Value, Unit.c_str());
  for (const auto &[Name, Value, Unit] : R.Named)
    std::printf("metric %s = %.6g %s\n", Name.c_str(), Value, Unit.c_str());

  std::vector<std::tuple<std::string, double, std::string>> Layer;
  if (O.Trace) {
    R.setLayer("codegen.jit_compiles",
               JitRuntime::instance().stats().Invocations);
    for (const auto &[Name, Unit] : layerMetricList()) {
      auto It = R.Layer.find(Name);
      double V = It == R.Layer.end() ? 0.0 : It->second;
      if (!std::isfinite(V)) {
        std::printf("warning: layer %s is not finite; reported as 0\n", Name);
        V = 0.0;
      }
      Layer.emplace_back(Name, V, Unit);
      std::printf("layer %s = %.6g %s\n", Name, std::get<1>(Layer.back()),
                  Unit);
    }
    if (!O.SpanPath.empty() && !R.T.write(O.SpanPath, O.Workload)) {
      std::fprintf(stderr, "ysperf: cannot write spans to %s\n",
                   O.SpanPath.c_str());
      return 1;
    }
  }

  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": "
              "%llu, \"end_to_end\": ",
              R.ChecksPassed && R.Failed == 0 ? "true" : "false", R.Attempted,
              R.Failed);
  printJsonMetrics(stdout, E2E);
  std::printf(", \"per_layer\": ");
  printJsonMetrics(stdout, Layer);
  std::printf("}\n");
  return 0;
}
