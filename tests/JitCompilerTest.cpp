//===- tests/JitCompilerTest.cpp - runtime JIT backend tests ----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The `jit`-labeled ctest suite: the runtime JIT backend end to end.
/// Compiles SourceEmitter output with the system compiler, dlopens the
/// result, and checks the executed kernels bit-identical against the
/// ReferenceInterpreter — including the full VariantChecker matrix forced
/// onto the jit backend.  Also the cache-behavior contract (a warm
/// content-addressed store serves repeat builds with zero compiler
/// invocations, in-process and across JitCompiler instances), the
/// no-compiler-available fallback to kernel plans, and the regression
/// that every emitted (stencil x config) translation unit — temporal
/// drivers included — compiles and links standalone, and that the
/// emitted temporal driver reproduces runTimeSteps bit for bit.
///
/// Every test that needs the system compiler skips (GTEST_SKIP) when none
/// is available, so the suite stays green in compilerless sandboxes.
///
//===----------------------------------------------------------------------===//

#include "codegen/JitCompiler.h"
#include "codegen/KernelExecutor.h"
#include "codegen/SourceEmitter.h"
#include "support/Random.h"
#include "verify/GridPatterns.h"
#include "verify/ReferenceInterpreter.h"
#include "verify/VariantChecker.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>

using namespace ys;

namespace {

bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

/// A fresh private cache directory under the gtest temp dir.
std::string freshCacheDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + "/ys-jit-test-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Restores the process-wide JitRuntime to its environment-derived
/// configuration when a test that reconfigured it ends (however it ends).
struct JitRuntimeGuard {
  ~JitRuntimeGuard() { JitRuntime::configure(JitCompiler::Config()); }
};

/// Skips the calling test when no system compiler works in this sandbox.
#define YS_REQUIRE_COMPILER(Jit)                                            \
  do {                                                                      \
    if (!(Jit).available())                                                 \
      GTEST_SKIP() << "no working C++ compiler in this environment";        \
  } while (0)

} // namespace

//===----------------------------------------------------------------------===//
// Backend naming and selection
//===----------------------------------------------------------------------===//

TEST(KernelBackendNames, RoundTripAndRejects) {
  EXPECT_STREQ(kernelBackendName(KernelBackend::Plan), "plan");
  EXPECT_STREQ(kernelBackendName(KernelBackend::Jit), "jit");
  EXPECT_EQ(parseKernelBackend("plan"), KernelBackend::Plan);
  EXPECT_EQ(parseKernelBackend("jit"), KernelBackend::Jit);
  EXPECT_EQ(parseKernelBackend("JIT"), KernelBackend::Jit); // Case-blind.
  EXPECT_FALSE(parseKernelBackend("llvm").has_value());
  EXPECT_FALSE(parseKernelBackend("").has_value());
}

TEST(KernelBackendNames, EnvSelection) {
  ASSERT_EQ(setenv("YS_BACKEND", "jit", 1), 0);
  EXPECT_EQ(selectKernelBackend(), KernelBackend::Jit);
  ASSERT_EQ(setenv("YS_BACKEND", "plan", 1), 0);
  EXPECT_EQ(selectKernelBackend(), KernelBackend::Plan);
  // Unknown value: warn (once) and fall back to plans rather than abort.
  ASSERT_EQ(setenv("YS_BACKEND", "no-such-backend", 1), 0);
  EXPECT_EQ(selectKernelBackend(), KernelBackend::Plan);
  unsetenv("YS_BACKEND");
  EXPECT_EQ(selectKernelBackend(), KernelBackend::Plan);
}

TEST(JitCompilerConfig, CacheDirEnvOverride) {
  ASSERT_EQ(setenv("YS_JIT_CACHE", "/some/explicit/dir", 1), 0);
  EXPECT_EQ(JitCompiler::defaultCacheDir(), "/some/explicit/dir");
  unsetenv("YS_JIT_CACHE");
  // Next preference: a yasksite-jit directory next to the tuning cache.
  ASSERT_EQ(setenv("YS_TUNE_CACHE", "/var/cache/ys/tuning.json", 1), 0);
  EXPECT_EQ(JitCompiler::defaultCacheDir(), "/var/cache/ys/yasksite-jit");
  unsetenv("YS_TUNE_CACHE");
  EXPECT_TRUE(contains(JitCompiler::defaultCacheDir(), "yasksite-jit-"));
}

//===----------------------------------------------------------------------===//
// Direct compile + execute of the emitted JIT range kernel
//===----------------------------------------------------------------------===//

TEST(JitCompiler, CompileAndRunEmittedRangeKernel) {
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("range-kernel");
  JitCompiler Jit(Cfg);
  YS_REQUIRE_COMPILER(Jit);

  const StencilSpec Spec = StencilSpec::heat3d();
  const GridDims Dims{11, 9, 7};
  Grid In(Dims, 1), Want(Dims, 1), Got(Dims, 1);
  fillPattern(In, GridPattern::Random, 17);
  Want.copyHaloFrom(In);
  Got.copyHaloFrom(In);
  ReferenceInterpreter(Spec).runSweep({&In}, Want);

  JitGeometry G(In);
  std::string Source = SourceEmitter::emitJitTranslationUnit(Spec, G);
  Expected<JitKernel> Kernel =
      Jit.compile(Source, SourceEmitter::jitKernelSymbol());
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.takeError().message();

  const double *Ins[] = {In.data()};
  Kernel->rangeKernel()(Ins, Got.data(), 0, Dims.Nz, 0, Dims.Ny, 0,
                        Dims.Nx);

  CellDivergence Div;
  EXPECT_FALSE(findFirstDivergence(Want, Got, UlpTolerance(), Div))
      << "first divergence at (" << Div.X << "," << Div.Y << "," << Div.Z
      << "): got " << Div.Got << " want " << Div.Want;
}

TEST(JitCompiler, FoldedGeometryBitIdentical) {
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("folded");
  JitCompiler Jit(Cfg);
  YS_REQUIRE_COMPILER(Jit);

  const StencilSpec Spec = StencilSpec::star3d(2);
  const GridDims Dims{10, 9, 6};
  // Folds that do not divide the extents, so edge fold blocks are partial.
  const Fold Folds[] = {{4, 1, 1}, {2, 2, 1}, {1, 2, 2}};
  for (const Fold &F : Folds) {
    SCOPED_TRACE(F.str());
    Grid In(Dims, 2, F), Want(Dims, 2, F), Got(Dims, 2, F);
    fillPattern(In, GridPattern::Random, 3);
    Want.copyHaloFrom(In);
    Got.copyHaloFrom(In);
    ReferenceInterpreter(Spec).runSweep({&In}, Want);

    JitGeometry G(In);
    Expected<JitKernel> Kernel =
        Jit.compile(SourceEmitter::emitJitTranslationUnit(Spec, G),
                    SourceEmitter::jitKernelSymbol());
    ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.takeError().message();
    const double *Ins[] = {In.data()};
    Kernel->rangeKernel()(Ins, Got.data(), 0, Dims.Nz, 0, Dims.Ny, 0,
                          Dims.Nx);
    CellDivergence Div;
    EXPECT_FALSE(findFirstDivergence(Want, Got, UlpTolerance(), Div))
        << "(" << Div.X << "," << Div.Y << "," << Div.Z << ") got "
        << Div.Got << " want " << Div.Want;
  }
}

TEST(JitCompiler, CompileErrorCarriesDiagnostics) {
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("bad-source");
  JitCompiler Jit(Cfg);
  YS_REQUIRE_COMPILER(Jit);
  Expected<JitKernel> K = Jit.compile("this is not C++\n", "nope");
  ASSERT_FALSE(static_cast<bool>(K));
  EXPECT_TRUE(contains(K.takeError().message(), "compiler exited"));
  EXPECT_EQ(Jit.stats().Failures, 1u);
  // A failed compile must not poison the cache: no .so under the key.
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(Cfg.CacheDir) /
      ("ys-jit-" + Jit.fingerprint("this is not C++\n") + ".so")));
}

//===----------------------------------------------------------------------===//
// The content-addressed cache contract
//===----------------------------------------------------------------------===//

TEST(JitCache, WarmCacheMeansZeroCompilerInvocations) {
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("warm");
  JitCompiler Jit(Cfg);
  YS_REQUIRE_COMPILER(Jit);

  const StencilSpec Spec = StencilSpec::heat3d();
  JitGeometry G = JitGeometry::forDims({8, 8, 8}, 1, Fold{1, 1, 1});
  std::string Source = SourceEmitter::emitJitTranslationUnit(Spec, G);

  // Cold: exactly one compiler process.
  ASSERT_TRUE(static_cast<bool>(
      Jit.compile(Source, SourceEmitter::jitKernelSymbol())));
  JitStats S = Jit.stats();
  EXPECT_EQ(S.Invocations, 1u);
  EXPECT_EQ(S.MemoryHits, 0u);
  EXPECT_EQ(S.DiskHits, 0u);

  // Warm, same instance: served from the in-process handle map.
  ASSERT_TRUE(static_cast<bool>(
      Jit.compile(Source, SourceEmitter::jitKernelSymbol())));
  S = Jit.stats();
  EXPECT_EQ(S.Invocations, 1u);
  EXPECT_EQ(S.MemoryHits, 1u);

  // Warm, fresh instance (a new process in spirit): served from disk,
  // still zero additional compiler invocations.
  JitCompiler Second(Cfg);
  ASSERT_TRUE(static_cast<bool>(
      Second.compile(Source, SourceEmitter::jitKernelSymbol())));
  S = Second.stats();
  EXPECT_EQ(S.Invocations, 0u);
  EXPECT_EQ(S.DiskHits, 1u);

  // The store is content-addressed: source and object live under the
  // fingerprint key, and no temp files are left behind.
  std::string Key = Jit.fingerprint(Source);
  std::filesystem::path Dir(Cfg.CacheDir);
  EXPECT_TRUE(std::filesystem::exists(Dir / ("ys-jit-" + Key + ".so")));
  EXPECT_TRUE(std::filesystem::exists(Dir / ("ys-jit-" + Key + ".cpp")));
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    EXPECT_FALSE(contains(Entry.path().filename().string(), ".tmp."))
        << Entry.path();
}

TEST(JitCache, FingerprintCoversSourceAndFlags) {
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("fingerprint");
  JitCompiler A(Cfg);
  YS_REQUIRE_COMPILER(A);
  // Different source -> different key; different flags -> different key
  // even for identical source (stale objects can never be served).
  EXPECT_NE(A.fingerprint("int a;\n"), A.fingerprint("int b;\n"));
  JitCompiler::Config Cfg2 = Cfg;
  Cfg2.Flags.push_back("-DYS_SOMETHING");
  JitCompiler B(Cfg2);
  EXPECT_NE(A.fingerprint("int a;\n"), B.fingerprint("int a;\n"));
}

//===----------------------------------------------------------------------===//
// KernelExecutor dispatch through the jit backend
//===----------------------------------------------------------------------===//

TEST(JitExecutor, TimeSteppingBitIdenticalAndOneBuild) {
  JitRuntimeGuard Guard;
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("executor");
  JitRuntime::configure(Cfg);
  YS_REQUIRE_COMPILER(JitRuntime::instance());

  const StencilSpec Spec = StencilSpec::heat3d();
  const GridDims Dims{12, 10, 8};
  Grid Ref(Dims, 1);
  fillPattern(Ref, GridPattern::Random, 5);
  ReferenceInterpreter(Spec).runTimeSteps(Ref, 3);

  KernelConfig C;
  C.Block.Y = 4; // Blocking stays executor-side; same .so either way.
  KernelExecutor Exec(Spec, C);
  Exec.setBackend(KernelBackend::Jit);
  EXPECT_EQ(Exec.backend(), KernelBackend::Jit);

  Grid U(Dims, 1), Scratch(Dims, 1);
  fillPattern(U, GridPattern::Random, 5);
  Scratch.copyHaloFrom(U);
  Exec.runTimeSteps(U, Scratch, 3);

  EXPECT_EQ(Exec.activeBackend(), KernelBackend::Jit);
  EXPECT_EQ(Exec.jitBuilds(), 1u);
  CellDivergence Div;
  EXPECT_FALSE(findFirstDivergence(Ref, U, UlpTolerance(), Div))
      << "(" << Div.X << "," << Div.Y << "," << Div.Z << ") got "
      << Div.Got << " want " << Div.Want;

  // Same geometry again: the compiled kernel is reused, not rebuilt.
  Exec.runTimeSteps(U, Scratch, 1);
  EXPECT_EQ(Exec.jitBuilds(), 1u);
}

TEST(JitExecutor, OneObjectServesEveryBlockingVariant) {
  JitRuntimeGuard Guard;
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("shared-object");
  JitRuntime::configure(Cfg);
  YS_REQUIRE_COMPILER(JitRuntime::instance());
  JitRuntime::instance().resetStats();

  // Blocking/wavefront/thread axes live in the executor, so every scalar
  // heat3d variant on one geometry shares a single compiled object.
  const StencilSpec Spec = StencilSpec::heat3d();
  const GridDims Dims{11, 9, 7};
  Grid Want(Dims, 1);
  fillPattern(Want, GridPattern::Random, 9);
  ReferenceInterpreter(Spec).runTimeSteps(Want, 2);

  KernelConfig Variants[3];
  Variants[1].Block = {4, 3, 2};
  Variants[2].WavefrontDepth = 2;
  Variants[2].Block.Z = 4;
  for (const KernelConfig &C : Variants) {
    SCOPED_TRACE(C.str());
    KernelExecutor Exec(Spec, C);
    Exec.setBackend(KernelBackend::Jit);
    Grid U(Dims, 1), Scratch(Dims, 1);
    fillPattern(U, GridPattern::Random, 9);
    Scratch.copyHaloFrom(U);
    Exec.runTimeSteps(U, Scratch, 2);
    EXPECT_EQ(Exec.activeBackend(), KernelBackend::Jit);
    CellDivergence Div;
    EXPECT_FALSE(findFirstDivergence(Want, U, UlpTolerance(), Div));
  }
  JitStats S = JitRuntime::instance().stats();
  EXPECT_EQ(S.Invocations, 1u); // One compile...
  EXPECT_EQ(S.MemoryHits, 2u);  // ...two in-process reuses.
}

TEST(JitExecutor, MissingCompilerFallsBackToPlans) {
  JitRuntimeGuard Guard;
  JitCompiler::Config Broken;
  Broken.Compiler = "/no/such/compiler-binary";
  Broken.CacheDir = freshCacheDir("broken");
  JitRuntime::configure(Broken);
  ASSERT_FALSE(JitRuntime::instance().available());

  const StencilSpec Spec = StencilSpec::heat3d();
  const GridDims Dims{9, 8, 7};
  Grid In(Dims, 1), Want(Dims, 1), Got(Dims, 1);
  fillPattern(In, GridPattern::Random, 2);
  Want.copyHaloFrom(In);
  Got.copyHaloFrom(In);
  ReferenceInterpreter(Spec).runSweep({&In}, Want);

  KernelExecutor Exec(Spec, KernelConfig());
  Exec.setBackend(KernelBackend::Jit);
  Exec.runSweep({&In}, Got); // Warns once, falls back, still correct.
  EXPECT_EQ(Exec.backend(), KernelBackend::Jit);      // The request...
  EXPECT_EQ(Exec.activeBackend(), KernelBackend::Plan); // ...vs reality.
  EXPECT_EQ(Exec.jitBuilds(), 0u);
  CellDivergence Div;
  EXPECT_FALSE(findFirstDivergence(Want, Got, UlpTolerance(), Div));
}

//===----------------------------------------------------------------------===//
// The full variant matrix through the jit backend
//===----------------------------------------------------------------------===//

TEST(JitVariantMatrix, EveryVariantBitIdenticalViaJit) {
  JitRuntimeGuard Guard;
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("matrix");
  JitRuntime::configure(Cfg);
  YS_REQUIRE_COMPILER(JitRuntime::instance());
  JitRuntime::instance().resetStats();

  CheckOptions CO;
  CO.Steps = 2;
  CO.Patterns = {GridPattern::Random, GridPattern::BoundaryStress};
  CO.Backend = KernelBackend::Jit;
  VariantChecker Checker(StencilSpec::star3d(2), {11, 10, 9}, CO);
  CheckReport Report = Checker.checkAll();
  EXPECT_TRUE(Report.ok()) << Report.summary();
  EXPECT_TRUE(Report.Rejected.empty());
  // With a working compiler every comparison must actually run JITted
  // code — a silent fallback to plans would make this suite vacuous.
  EXPECT_EQ(Report.JitComparisons, Report.ComparisonsRun);
  EXPECT_TRUE(contains(Report.summary(), "via jit backend"));

  // The whole matrix needs one compile per distinct (fold, geometry),
  // not one per variant: blocking/threads/wavefront reuse the object.
  JitStats S = JitRuntime::instance().stats();
  EXPECT_GT(S.Invocations, 0u);
  EXPECT_LT(S.Invocations, Report.VariantsChecked);
  EXPECT_EQ(S.Failures, 0u);
}

//===----------------------------------------------------------------------===//
// Every emitted (stencil x config) TU compiles and links standalone
//===----------------------------------------------------------------------===//

TEST(JitEmittedVariants, EveryEnumeratedTranslationUnitCompiles) {
  // Regression for the emitter bugs that blocked compilation: truncated
  // coefficients and the wavefront driver referencing an undefined
  // kernel_<name>_slab.  Every TU the emitter can produce for the
  // curated variant space must build as a standalone shared object with
  // its kernel resolvable by dlsym.  Optimization is irrelevant here, so
  // -O0 keeps the matrix fast.
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("emitted-tus");
  Cfg.Flags = {"-O0", "-ffp-contract=off", "-fopenmp-simd", "-fPIC",
               "-shared"};
  JitCompiler Jit(Cfg);
  YS_REQUIRE_COMPILER(Jit);

  struct Case {
    StencilSpec Spec;
    const char *Symbol;
  };
  const Case Cases[] = {
      {StencilSpec::heat3d(), "kernel_heat3d"},
      {StencilSpec::star3d(2), "kernel_star3d_r2"},
  };
  SourceEmitter::Options Opts;
  Opts.EmitExternC = true; // dlsym needs unmangled names.

  unsigned Compiled = 0, WavefrontTUs = 0;
  for (const Case &TC : Cases) {
    VariantChecker Checker(TC.Spec, {8, 8, 8});
    std::set<std::string> Seen; // Many configs emit the same TU text.
    for (const KernelConfig &C : Checker.enumerateConfigs()) {
      std::string Src =
          SourceEmitter::emitTranslationUnit(TC.Spec, C, Opts);
      if (!Seen.insert(Src).second)
        continue;
      SCOPED_TRACE(std::string(TC.Symbol) + " " + C.str());
      Expected<JitKernel> K = Jit.compile(Src, TC.Symbol);
      ASSERT_TRUE(static_cast<bool>(K)) << K.takeError().message();
      EXPECT_TRUE(static_cast<bool>(*K));
      ++Compiled;
      if (C.WavefrontDepth > 1 && C.VectorFold.isScalar())
        ++WavefrontTUs;
    }
  }
  // The matrix must include wavefront TUs (the ones that used to emit a
  // call to a slab kernel that was never defined).
  EXPECT_GT(WavefrontTUs, 0u);
  EXPECT_GT(Compiled, 4u);
  EXPECT_EQ(Jit.stats().Failures, 0u);
}

//===----------------------------------------------------------------------===//
// The emitted temporal driver runs the executor's schedule bit for bit
//===----------------------------------------------------------------------===//

TEST(JitEmittedVariants, TemporalDriverMatchesExecutorBitForBit) {
  // Compiles the standalone scalar-fold TU for every temporal schedule
  // (Block.Z = 0 included: the table must use the resolved whole-Nz
  // block, as the executor does), runs one macro step through
  // drive_<name>_temporal, and compares it with runTimeSteps.
  JitCompiler::Config Cfg;
  Cfg.CacheDir = freshCacheDir("temporal-drivers");
  Cfg.Flags = {"-O0", "-ffp-contract=off", "-fopenmp-simd", "-fPIC",
               "-shared"};
  JitCompiler Jit(Cfg);
  YS_REQUIRE_COMPILER(Jit);

  using DriverFn = void (*)(double *, double *, long, long, long, long);
  const StencilSpec Spec = StencilSpec::star3d(2);
  const GridDims Dims{16, 12, 20};
  SourceEmitter::Options Opts;
  Opts.EmitExternC = true;
  Opts.Dims = Dims;

  for (Schedule Sched :
       {Schedule::Wavefront, Schedule::Diamond, Schedule::DeepTemporal})
    for (long Bz : {0L, 4L})
      for (int Depth : {2, 3}) {
        KernelConfig C;
        C.Sched = Sched;
        C.WavefrontDepth = Depth;
        C.Block.Z = Bz;
        SCOPED_TRACE(C.str());
        std::string Src = SourceEmitter::emitTranslationUnit(Spec, C, Opts);
        Expected<JitKernel> K =
            Jit.compile(Src, "drive_kernel_star3d_r2_temporal");
        ASSERT_TRUE(static_cast<bool>(K)) << K.takeError().message();
        DriverFn Drive = K->fn<DriverFn>();

        auto MakeGrid = [&] {
          Grid G(Dims, Spec.radius());
          Rng R(7);
          G.fillRandom(R);
          G.fillHalo(0.25);
          return G;
        };
        Grid Want = MakeGrid(), WantScratch = MakeGrid();
        KernelExecutor(Spec, C).runTimeSteps(Want, WantScratch, Depth);

        Grid Even = MakeGrid(), Odd = MakeGrid();
        auto Origin = [](Grid &G) {
          return G.data() + G.linearIndex(0, 0, 0);
        };
        Drive(Origin(Even), Origin(Odd), Dims.Nx, Dims.Ny, Even.padX(),
              Even.padY());
        const Grid &Got = Depth % 2 == 0 ? Even : Odd;
        EXPECT_EQ(Grid::maxAbsDiffInterior(Got, Want), 0.0);
      }
  EXPECT_EQ(Jit.stats().Failures, 0u);
}
