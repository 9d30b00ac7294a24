//===- tests/SourceEmitterTest.cpp - code emission golden tests ------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/SchedulePlan.h"
#include "codegen/SourceEmitter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

using namespace ys;

namespace {

bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

/// Parses the `static const long <Name>[][3] = {{s, z0, z1}, ...};` slab
/// table out of emitted driver source.
std::vector<LevelSlab> slabTable(const std::string &Src,
                                 const std::string &Name) {
  std::vector<LevelSlab> Out;
  size_t Pos = Src.find("static const long " + Name + "[][3] = {");
  if (Pos == std::string::npos)
    return Out;
  Pos = Src.find('{', Pos) + 1;
  size_t End = Src.find("};", Pos);
  while ((Pos = Src.find('{', Pos)) < End) {
    LevelSlab L;
    EXPECT_EQ(std::sscanf(Src.c_str() + Pos, "{%d, %ld, %ld}", &L.S, &L.Z0,
                          &L.Z1),
              3);
    Out.push_back(L);
    ++Pos;
  }
  return Out;
}

} // namespace

TEST(SourceEmitter, ExpressionForHeat) {
  std::string E = SourceEmitter::emitExpression(StencilSpec::heat3d());
  EXPECT_TRUE(contains(E, "0.5 * u0[IDX3(x, y, z)]"));
  EXPECT_TRUE(contains(E, "u0[IDX3(x + 1, y, z)]"));
  EXPECT_TRUE(contains(E, "u0[IDX3(x, y - 1, z)]"));
  EXPECT_TRUE(contains(E, "u0[IDX3(x, y, z + 1)]"));
}

TEST(SourceEmitter, UnitCoefficientOmitsMultiply) {
  StencilSpec S("s", {{1, 0, 0, 1.0, 0}});
  std::string E = SourceEmitter::emitExpression(S);
  EXPECT_EQ(E, "u0[IDX3(x + 1, y, z)]");
}

TEST(SourceEmitter, CoefficientsSurviveTextRoundTrip) {
  // Regression: coefficients used to be truncated to 9 significant
  // digits, so a compiled kernel could not be bit-identical to the
  // interpreter.  Every printed coefficient must parse back to the exact
  // double, including non-terminating binary fractions, tiny magnitudes,
  // and values needing all 17 digits.
  const double Cases[] = {1.0 / 3.0, 1e-12, 0.1, -2.0 / 7.0,
                          6.283185307179586, 1.0 + 1e-15};
  for (double Coeff : Cases) {
    SCOPED_TRACE(Coeff);
    StencilSpec S("c", {{0, 0, 0, Coeff, 0}});
    std::string E = SourceEmitter::emitExpression(S);
    // Strip the load factor; what precedes "u0[" (if anything) is the
    // printed coefficient text.
    size_t Star = E.find(" * u0[");
    ASSERT_NE(Star, std::string::npos) << E;
    std::string Text = E.substr(0, Star);
    if (Text.front() == '(') // Negatives are parenthesized.
      Text = Text.substr(1, Text.size() - 2);
    EXPECT_EQ(std::strtod(Text.c_str(), nullptr), Coeff) << Text;
  }
}

TEST(SourceEmitter, NegativeCoefficientsParenthesized) {
  // "a + -0.5 * b" is legal but "-" gluing onto the previous term is
  // fragile under textual post-processing; the emitter wraps negatives.
  StencilSpec S("n", {{0, 0, 0, -0.5, 0}, {1, 0, 0, 0.25, 0}});
  std::string E = SourceEmitter::emitExpression(S);
  EXPECT_TRUE(contains(E, "(-0.5) * u0[IDX3(x, y, z)]"));
  EXPECT_FALSE(contains(E, "+ -"));
}

TEST(SourceEmitter, UnblockedKernelStructure) {
  std::string Src =
      SourceEmitter::emitKernel(StencilSpec::heat3d(), KernelConfig());
  EXPECT_TRUE(contains(Src, "void kernel_heat3d("));
  EXPECT_TRUE(contains(Src, "const double * __restrict u0"));
  EXPECT_TRUE(contains(Src, "#pragma omp parallel for schedule(static)"));
  EXPECT_TRUE(contains(Src, "#pragma omp simd"));
  EXPECT_TRUE(contains(Src, "for (long z = 0; z < Nz; ++z)"));
  EXPECT_FALSE(contains(Src, "zb")); // No blocking loops.
}

TEST(SourceEmitter, BlockedKernelStructure) {
  KernelConfig C;
  C.Block.X = 32;
  C.Block.Y = 16;
  C.Block.Z = 8;
  std::string Src = SourceEmitter::emitKernel(StencilSpec::heat3d(), C);
  EXPECT_TRUE(contains(Src, "for (long zb = 0; zb < Nz; zb += 8)"));
  EXPECT_TRUE(contains(Src, "for (long yb = 0; yb < Ny; yb += 16)"));
  EXPECT_TRUE(contains(Src, "for (long xb = 0; xb < Nx; xb += 32)"));
  EXPECT_TRUE(contains(Src, "collapse(2)"));
  EXPECT_TRUE(contains(Src, "std::min(zb + 8, Nz)"));
}

TEST(SourceEmitter, FoldedKernelStructure) {
  KernelConfig C;
  C.VectorFold = {2, 2, 1};
  std::string Src = SourceEmitter::emitKernel(StencilSpec::heat3d(), C);
  // Fold-block signature instead of raw extents.
  EXPECT_TRUE(contains(Src, "long NVx, long NVy, long NVz"));
  // Per-point fold-linear offset tables, built once before the sweep.
  EXPECT_TRUE(contains(Src, "off0[FOLD_ELEMS]"));
  EXPECT_TRUE(contains(Src, "off0[l] = FOLD_OFF(ix, iy, iz)"));
  EXPECT_TRUE(contains(Src, "FOLD_OFF(ix + 1, iy, iz)"));
  // Vectorized lane loop accumulating per fold block.
  EXPECT_TRUE(contains(Src, "#pragma omp simd"));
  EXPECT_TRUE(contains(Src, "double acc[FOLD_ELEMS];"));
  EXPECT_TRUE(contains(Src, "acc[l] += 0.5 * u0[base + off0[l]];"));
  EXPECT_TRUE(contains(Src, "out[base + l] = acc[l];"));
  EXPECT_TRUE(contains(
      Src, "const long base = ((vz * NVy + vy) * NVx + vx) * FOLD_ELEMS;"));
  // Folded kernels never use the scalar index macro.
  EXPECT_FALSE(contains(Src, "IDX3"));
}

TEST(SourceEmitter, FoldedBlockedKernelIteratesVectorBlocks) {
  KernelConfig C;
  C.VectorFold = {4, 2, 1};
  C.Block.X = 32;
  C.Block.Y = 16;
  C.Block.Z = 8;
  std::string Src = SourceEmitter::emitKernel(StencilSpec::heat3d(), C);
  // Block sizes are converted to fold-block units (ceil-div by the fold).
  EXPECT_TRUE(contains(Src, "vxb += 8"));
  EXPECT_TRUE(contains(Src, "vyb += 8"));
  EXPECT_TRUE(contains(Src, "vzb += 8"));
  EXPECT_TRUE(contains(Src, "collapse(2)"));
}

TEST(SourceEmitter, PartlyBlockedKernelStepsUnblockedExtentWhole) {
  // Block.X = 0 inside a blocked config means "the whole x extent", as in
  // BlockSize::resolved(); the emitted loop must not run 1-wide x blocks.
  KernelConfig C;
  C.Block.Y = 8;
  C.Block.Z = 4;
  std::string Src = SourceEmitter::emitKernel(StencilSpec::heat3d(), C);
  EXPECT_TRUE(contains(Src, "for (long zb = 0; zb < Nz; zb += 4)"));
  EXPECT_TRUE(contains(Src, "for (long yb = 0; yb < Ny; yb += 8)"));
  EXPECT_TRUE(contains(Src, "for (long xb = 0; xb < Nx; xb += Nx)"));
  EXPECT_TRUE(contains(Src, "long xe = std::min(xb + Nx, Nx);"));
  EXPECT_FALSE(contains(Src, "xb += 1)"));

  C.VectorFold = {8, 1, 1};
  Src = SourceEmitter::emitKernel(StencilSpec::heat3d(), C);
  EXPECT_TRUE(contains(Src, "for (long vzb = 0; vzb < NVz; vzb += 4)"));
  EXPECT_TRUE(contains(Src, "for (long vyb = 0; vyb < NVy; vyb += 8)"));
  EXPECT_TRUE(contains(Src, "for (long vxb = 0; vxb < NVx; vxb += NVx)"));
  EXPECT_TRUE(contains(Src, "long vxe = std::min(vxb + NVx, NVx);"));
  EXPECT_FALSE(contains(Src, "vxb += 1)"));
}

TEST(SourceEmitter, FoldedTranslationUnitDefinesFoldMacros) {
  KernelConfig C;
  C.VectorFold = {2, 2, 1};
  std::string Src =
      SourceEmitter::emitTranslationUnit(StencilSpec::heat3d(), C);
  EXPECT_TRUE(contains(Src, "#define FOLD_X 2"));
  EXPECT_TRUE(contains(Src, "#define FOLD_Y 2"));
  EXPECT_TRUE(contains(Src, "#define FOLD_Z 1"));
  EXPECT_TRUE(contains(Src, "#define FOLD_ELEMS 4"));
  EXPECT_TRUE(contains(Src, "#define FOLD_DIV"));
  EXPECT_TRUE(contains(Src, "#define FOLD_OFF"));
  EXPECT_FALSE(contains(Src, "#define IDX3"));
}

TEST(SourceEmitter, ScalarEmissionUnchangedByFoldSupport) {
  // Default (scalar-fold) configs keep the classic IDX3 loop nest.
  std::string Src = SourceEmitter::emitTranslationUnit(StencilSpec::heat3d(),
                                                       KernelConfig());
  EXPECT_TRUE(contains(Src, "#define IDX3"));
  EXPECT_FALSE(contains(Src, "FOLD_OFF"));
  EXPECT_FALSE(contains(Src, "NVx"));
}

TEST(SourceEmitter, OptionsControlPragmas) {
  SourceEmitter::Options Opts;
  Opts.EmitOpenMP = false;
  Opts.EmitSimdPragma = false;
  Opts.EmitRestrict = false;
  std::string Src =
      SourceEmitter::emitKernel(StencilSpec::heat3d(), KernelConfig(), Opts);
  EXPECT_FALSE(contains(Src, "#pragma"));
  EXPECT_FALSE(contains(Src, "__restrict"));
}

TEST(SourceEmitter, CustomFunctionName) {
  SourceEmitter::Options Opts;
  Opts.FunctionName = "my_kernel";
  std::string Src =
      SourceEmitter::emitKernel(StencilSpec::heat3d(), KernelConfig(), Opts);
  EXPECT_TRUE(contains(Src, "void my_kernel("));
}

TEST(SourceEmitter, DashesMangledInNames) {
  std::string Src =
      SourceEmitter::emitKernel(StencilSpec::star3d(2), KernelConfig());
  EXPECT_TRUE(contains(Src, "void kernel_star3d_r2("));
}

TEST(SourceEmitter, MultiGridSignature) {
  StencilSpec S("two", {{0, 0, 0, 1.0, 0}, {0, 0, 0, 0.5, 1}});
  std::string Src = SourceEmitter::emitKernel(S, KernelConfig());
  EXPECT_TRUE(contains(Src, "u0"));
  EXPECT_TRUE(contains(Src, "u1"));
}

TEST(SourceEmitter, TranslationUnitHeader) {
  KernelConfig C;
  C.WavefrontDepth = 4;
  std::string Src =
      SourceEmitter::emitTranslationUnit(StencilSpec::heat3d(), C);
  EXPECT_TRUE(contains(Src, "// stencil   : heat3d (star, radius 1"));
  EXPECT_TRUE(contains(Src, "#define IDX3"));
  EXPECT_TRUE(contains(Src, "#include <algorithm>"));
  EXPECT_TRUE(contains(Src, "temporal wavefront depth 4"));
  EXPECT_TRUE(contains(Src, "flops/LUP"));
}

TEST(SourceEmitter, EmittedSourceParsesAsCpp) {
  // Smoke-check the emitted TU contains balanced braces.
  std::string Src = SourceEmitter::emitTranslationUnit(
      StencilSpec::star3d(2), KernelConfig());
  long Balance = 0;
  for (char Ch : Src) {
    if (Ch == '{')
      ++Balance;
    if (Ch == '}')
      --Balance;
    EXPECT_GE(Balance, 0);
  }
  EXPECT_EQ(Balance, 0);
}

TEST(SourceEmitter, PingPongDriver) {
  std::string Src = SourceEmitter::emitTimeStepDriver(
      StencilSpec::heat3d(), KernelConfig());
  EXPECT_TRUE(contains(Src, "void drive_kernel_heat3d("));
  EXPECT_TRUE(contains(Src, "std::swap(even, odd);"));
  EXPECT_FALSE(contains(Src, "_slabs"));
}

TEST(SourceEmitter, WavefrontDriverFrontierSchedule) {
  KernelConfig C;
  C.WavefrontDepth = 4;
  C.Block.Z = 8;
  std::string Src =
      SourceEmitter::emitTimeStepDriver(StencilSpec::star3d(2), C);
  EXPECT_TRUE(contains(Src, "wavefront schedule: depth 4, radius 2, Nz 32, "
                            "z-block 8"));
  // The table is the executor's frontier train, slab for slab.
  std::vector<LevelSlab> Table = slabTable(Src, "kernel_star3d_r2_slabs");
  EXPECT_EQ(Table, buildSchedulePlan(Schedule::Wavefront, 4, 32, 2, 8).Slabs);
  ASSERT_GE(Table.size(), 2u);
  EXPECT_EQ(Table[0], (LevelSlab{1, 0, 8}));
  EXPECT_EQ(Table[1], (LevelSlab{2, 0, 6})); // Trails level 1 by r planes.
  // The slab kernel the table is walked through must be *defined* in the
  // emitted text, not merely referenced — a bare call used to leave the
  // driver un-linkable.
  EXPECT_TRUE(contains(Src, "void kernel_star3d_r2_slab("));
  size_t SlabDef = Src.find("void kernel_star3d_r2_slab(");
  size_t TableDef = Src.find("static const long kernel_star3d_r2_slabs");
  size_t Driver = Src.find("void drive_kernel_star3d_r2_temporal(");
  ASSERT_NE(Driver, std::string::npos);
  EXPECT_LT(SlabDef, Driver); // Defined before its call site.
  EXPECT_LT(TableDef, Driver);
  EXPECT_TRUE(contains(Src, "kernel_star3d_r2_slab(src, dst,"));
}

TEST(SourceEmitter, DriverTableIsThePlanForEverySchedule) {
  // Each schedule's table equals buildSchedulePlan for the emit dims and
  // the *resolved* z block — Block.Z = 0 means one whole-Nz block, which
  // is what the executor runs.
  StencilSpec Spec = StencilSpec::star3d(2);
  for (Schedule Sched :
       {Schedule::Wavefront, Schedule::Diamond, Schedule::DeepTemporal})
    for (long Bz : {0L, 3L, 8L}) {
      KernelConfig C;
      C.WavefrontDepth = 3;
      C.Sched = Sched;
      C.Block.Z = Bz;
      SourceEmitter::Options Opts;
      Opts.Dims = {16, 12, 20};
      SCOPED_TRACE(C.str());
      std::string Src = SourceEmitter::emitTimeStepDriver(Spec, C, Opts);
      EXPECT_TRUE(contains(Src, std::string("// Temporal ") +
                                    scheduleName(Sched) + " schedule"));
      EXPECT_EQ(slabTable(Src, "kernel_star3d_r2_slabs"),
                buildSchedulePlan(Sched, 3, 20, 2, Bz ? Bz : 20).Slabs);
      EXPECT_TRUE(contains(Src, "void drive_kernel_star3d_r2_temporal("));
    }
}

TEST(SourceEmitter, WavefrontTranslationUnitIsSelfContained) {
  // A temporal TU must carry kernel, slab kernel, table, and driver so it
  // compiles standalone (the jit suite builds and runs it; this is the
  // cheap structural check).
  KernelConfig C;
  C.WavefrontDepth = 2;
  C.Block.Z = 4;
  std::string Src =
      SourceEmitter::emitTranslationUnit(StencilSpec::heat3d(), C);
  EXPECT_TRUE(contains(Src, "void kernel_heat3d("));
  EXPECT_TRUE(contains(Src, "void kernel_heat3d_slab("));
  EXPECT_TRUE(contains(Src, "static const long kernel_heat3d_slabs[][3]"));
  EXPECT_TRUE(contains(Src, "void drive_kernel_heat3d_temporal("));
}

TEST(SourceEmitter, ExternCLinkageOnEveryFunction) {
  SourceEmitter::Options Opts;
  Opts.EmitExternC = true;
  KernelConfig C;
  C.WavefrontDepth = 2;
  std::string Src =
      SourceEmitter::emitTranslationUnit(StencilSpec::heat3d(), C, Opts);
  EXPECT_TRUE(contains(Src, "extern \"C\" void kernel_heat3d("));
  EXPECT_TRUE(contains(Src, "extern \"C\" void kernel_heat3d_slab("));
  EXPECT_TRUE(
      contains(Src, "extern \"C\" void drive_kernel_heat3d_temporal("));
}

TEST(SourceEmitter, WavefrontDriverClampsBlockToRadius) {
  KernelConfig C;
  C.WavefrontDepth = 2;
  C.Block.Z = 1; // Below radius+1: must be clamped for progress.
  std::string Src =
      SourceEmitter::emitTimeStepDriver(StencilSpec::star3d(2), C);
  std::vector<LevelSlab> Table = slabTable(Src, "kernel_star3d_r2_slabs");
  EXPECT_EQ(Table, buildSchedulePlan(Schedule::Wavefront, 2, 32, 2, 1).Slabs);
  ASSERT_FALSE(Table.empty());
  EXPECT_EQ(Table[0], (LevelSlab{1, 0, 3}));
}

#include "frontend/Parser.h"

TEST(SourceEmitter, DslRoundTripPreservesPoints) {
  for (const StencilSpec &Orig :
       {StencilSpec::heat3d(), StencilSpec::star3d(3),
        StencilSpec::box3d(1), StencilSpec::longRange(4)}) {
    std::string Dsl = SourceEmitter::emitDsl(Orig);
    auto DefOr = Parser::parseSingle(Dsl);
    ASSERT_TRUE(static_cast<bool>(DefOr))
        << Orig.name() << ": " << DefOr.takeError().message() << "\n"
        << Dsl;
    auto SpecOr = DefOr->singleSpec();
    ASSERT_TRUE(static_cast<bool>(SpecOr)) << Orig.name();
    EXPECT_EQ(SpecOr->numPoints(), Orig.numPoints()) << Orig.name();
    // Every original point must reappear with the same coefficient.
    for (const StencilPoint &P : Orig.points()) {
      bool Found = false;
      for (const StencilPoint &Q : SpecOr->points())
        if (P.sameOffset(Q)) {
          EXPECT_DOUBLE_EQ(P.Coeff, Q.Coeff) << Orig.name();
          Found = true;
        }
      EXPECT_TRUE(Found) << Orig.name();
    }
  }
}

TEST(SourceEmitter, DslRoundTripMultiGrid) {
  StencilSpec S("axpy", {{0, 0, 0, 1.0, 0}, {0, 0, 0, -0.5, 1}});
  std::string Dsl = SourceEmitter::emitDsl(S);
  auto DefOr = Parser::parseSingle(Dsl);
  ASSERT_TRUE(static_cast<bool>(DefOr)) << Dsl;
  auto SpecOr = DefOr->singleSpec();
  ASSERT_TRUE(static_cast<bool>(SpecOr));
  EXPECT_EQ(SpecOr->numInputGrids(), 2u);
}

TEST(SourceEmitter, DslEmissionManglesName) {
  std::string Dsl = SourceEmitter::emitDsl(StencilSpec::star3d(2));
  EXPECT_NE(Dsl.find("stencil star3d_r2 {"), std::string::npos);
}
