//===- codegen/SourceEmitter.cpp - YASK-style C++ emission -----------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/SourceEmitter.h"

#include "codegen/SchedulePlan.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace ys;

static std::string indexArg(const char *Axis, int D) {
  if (D == 0)
    return Axis;
  return format("%s %c %d", Axis, D > 0 ? '+' : '-', D > 0 ? D : -D);
}

/// Coefficient prefix "<coeff> * " (empty for 1.0).  Literals use
/// shortest-round-trip precision so the compiled kernel reproduces the
/// interpreter arithmetic bit-for-bit — a fixed %.9f would round 1.0/3.0
/// and flush 1e-12 to 0 — and negative coefficients are parenthesized so
/// splicing a term after "+ " stays well-formed.
static std::string coeffFactor(double Coeff) {
  if (Coeff == 1.0)
    return std::string();
  std::string S = roundTripDouble(Coeff);
  if (Coeff < 0.0)
    S = "(" + S + ")";
  return S + " * ";
}

/// extern "C" prefix for function definitions when requested.
static const char *linkagePrefix(const SourceEmitter::Options &Opts) {
  return Opts.EmitExternC ? "extern \"C\" " : "";
}

std::string SourceEmitter::emitExpression(const StencilSpec &Spec) {
  std::string Out;
  bool First = true;
  for (const StencilPoint &P : Spec.points()) {
    std::string Term = coeffFactor(P.Coeff);
    Term += format("u%u[IDX3(%s, %s, %s)]", P.GridIdx,
                   indexArg("x", P.Dx).c_str(), indexArg("y", P.Dy).c_str(),
                   indexArg("z", P.Dz).c_str());
    if (!First)
      Out += "\n        + ";
    Out += Term;
    First = false;
  }
  return Out;
}

/// Emits the fold-aware kernel: the same inner-loop shape as the
/// in-process KernelPlan fast path — per-point fold-linear offset tables
/// computed once before the sweep, then per fold block a simd lane loop
/// accumulating the stencil points in spec order.
static std::string emitFoldedKernel(const StencilSpec &Spec,
                                    const KernelConfig &Config,
                                    const SourceEmitter::Options &Opts,
                                    const std::string &Name,
                                    const std::string &Restrict) {
  const Fold &F = Config.VectorFold;
  const std::vector<StencilPoint> &Points = Spec.points();
  std::string Src;

  // Signature: base pointers plus the padded extent in fold-block units.
  std::string Params;
  for (unsigned G = 0; G < Spec.numInputGrids(); ++G)
    Params += format("const double *%s u%u, ", Restrict.c_str(), G);
  Params += format("double *%s out,\n    long NVx, long NVy, long NVz",
                   Restrict.c_str());
  Src += format("%svoid %s(%s) {\n", linkagePrefix(Opts), Name.c_str(),
                Params.c_str());

  Src += format("  // Vector fold %s (%d lanes).  Fold-linear neighbor\n",
                F.str().c_str(), F.elems());
  Src += "  // offsets are constant per (point, lane) across every fold\n";
  Src += "  // block, so the tables below are computed once per sweep.\n";
  std::string Decl = "  long ";
  for (unsigned P = 0; P < Points.size(); ++P)
    Decl += format("%soff%u[FOLD_ELEMS]", P ? ", " : "", P);
  Src += Decl + ";\n";
  Src += "  for (int l = 0; l < FOLD_ELEMS; ++l) {\n";
  Src += "    const int ix = l % FOLD_X;\n";
  Src += "    const int iy = (l / FOLD_X) % FOLD_Y;\n";
  Src += "    const int iz = l / (FOLD_X * FOLD_Y);\n";
  for (unsigned P = 0; P < Points.size(); ++P)
    Src += format("    off%u[l] = FOLD_OFF(%s, %s, %s);\n", P,
                  indexArg("ix", Points[P].Dx).c_str(),
                  indexArg("iy", Points[P].Dy).c_str(),
                  indexArg("iz", Points[P].Dz).c_str());
  Src += "  }\n";

  bool Blocked = !Config.Block.isUnblocked();
  if (Opts.EmitOpenMP)
    Src += std::string("  #pragma omp parallel for schedule(static)") +
           (Blocked ? " collapse(2)" : "") + "\n";

  std::string Indent;
  if (Blocked) {
    // Cache blocks expressed in fold-block units (rounded up); an
    // unblocked extent spans the whole dimension, as in
    // BlockSize::resolved().
    auto VecBlock = [](long B, int Fd, const char *Full) {
      return B > 0 ? format("%ld", (B + Fd - 1) / Fd) : std::string(Full);
    };
    std::string Bx = VecBlock(Config.Block.X, F.X, "NVx");
    std::string By = VecBlock(Config.Block.Y, F.Y, "NVy");
    std::string Bz = VecBlock(Config.Block.Z, F.Z, "NVz");
    Src += format("  for (long vzb = 0; vzb < NVz; vzb += %s)\n", Bz.c_str());
    Src += format("    for (long vyb = 0; vyb < NVy; vyb += %s)\n",
                  By.c_str());
    Src += format("      for (long vxb = 0; vxb < NVx; vxb += %s) {\n",
                  Bx.c_str());
    Src += format("        long vze = std::min(vzb + %s, NVz);\n",
                  Bz.c_str());
    Src += format("        long vye = std::min(vyb + %s, NVy);\n",
                  By.c_str());
    Src += format("        long vxe = std::min(vxb + %s, NVx);\n",
                  Bx.c_str());
    Src += "        for (long vz = vzb; vz < vze; ++vz)\n";
    Src += "          for (long vy = vyb; vy < vye; ++vy)\n";
    Src += "            for (long vx = vxb; vx < vxe; ++vx) {\n";
    Indent = "              ";
  } else {
    Src += "  for (long vz = 0; vz < NVz; ++vz)\n";
    Src += "    for (long vy = 0; vy < NVy; ++vy)\n";
    Src += "      for (long vx = 0; vx < NVx; ++vx) {\n";
    Indent = "        ";
  }

  std::string SimdPragma =
      Opts.EmitSimdPragma ? Indent + "#pragma omp simd\n" : "";
  Src += Indent +
         "const long base = ((vz * NVy + vy) * NVx + vx) * FOLD_ELEMS;\n";
  Src += Indent + "double acc[FOLD_ELEMS];\n";
  Src += SimdPragma;
  Src += Indent + "for (int l = 0; l < FOLD_ELEMS; ++l)\n";
  Src += Indent + "  acc[l] = 0.0;\n";
  for (unsigned P = 0; P < Points.size(); ++P) {
    std::string Coeff = coeffFactor(Points[P].Coeff);
    Src += SimdPragma;
    Src += Indent + "for (int l = 0; l < FOLD_ELEMS; ++l)\n";
    Src += Indent + format("  acc[l] += %su%u[base + off%u[l]];\n",
                           Coeff.c_str(), Points[P].GridIdx, P);
  }
  Src += SimdPragma;
  Src += Indent + "for (int l = 0; l < FOLD_ELEMS; ++l)\n";
  Src += Indent + "  out[base + l] = acc[l];\n";

  if (Blocked) {
    Src += "            }\n";
    Src += "      }\n";
  } else {
    Src += "      }\n";
  }
  Src += "}\n";
  return Src;
}

std::string SourceEmitter::emitKernel(const StencilSpec &Spec,
                                      const KernelConfig &Config,
                                      const Options &Opts) {
  std::string Name = Opts.FunctionName.empty()
                         ? "kernel_" + Spec.name()
                         : Opts.FunctionName;
  for (char &C : Name)
    if (C == '-')
      C = '_';

  std::string Restrict = Opts.EmitRestrict ? " __restrict" : "";

  if (!Config.VectorFold.isScalar())
    return emitFoldedKernel(Spec, Config, Opts, Name, Restrict);

  std::string Src;

  // Signature: one const pointer per input grid plus the output.
  std::string Params;
  for (unsigned G = 0; G < Spec.numInputGrids(); ++G)
    Params += format("const double *%s u%u, ", Restrict.c_str(), G);
  Params += format("double *%s out,\n    long Nx, long Ny, long Nz, "
                   "long PadX, long PadY",
                   Restrict.c_str());
  Src += format("%svoid %s(%s) {\n", linkagePrefix(Opts), Name.c_str(),
                Params.c_str());

  bool Blocked = !Config.Block.isUnblocked();
  std::string Indent = "  ";

  if (Opts.EmitOpenMP)
    Src += Indent + "#pragma omp parallel for schedule(static)" +
           std::string(Blocked ? " collapse(2)" : "") + "\n";

  if (Blocked) {
    // An unblocked extent spans the whole dimension, as in
    // BlockSize::resolved().
    auto Step = [](long B, const char *Full) {
      return B > 0 ? format("%ld", B) : std::string(Full);
    };
    std::string Bx = Step(Config.Block.X, "Nx");
    std::string By = Step(Config.Block.Y, "Ny");
    std::string Bz = Step(Config.Block.Z, "Nz");
    Src += Indent + format("for (long zb = 0; zb < Nz; zb += %s)\n",
                           Bz.c_str());
    Src += Indent + format("  for (long yb = 0; yb < Ny; yb += %s)\n",
                           By.c_str());
    Src += Indent + format("    for (long xb = 0; xb < Nx; xb += %s) {\n",
                           Bx.c_str());
    Src += Indent + format("      long ze = std::min(zb + %s, Nz);\n",
                           Bz.c_str());
    Src += Indent + format("      long ye = std::min(yb + %s, Ny);\n",
                           By.c_str());
    Src += Indent + format("      long xe = std::min(xb + %s, Nx);\n",
                           Bx.c_str());
    Src += Indent + "      for (long z = zb; z < ze; ++z)\n";
    Src += Indent + "        for (long y = yb; y < ye; ++y) {\n";
    if (Opts.EmitSimdPragma)
      Src += Indent + "          #pragma omp simd\n";
    Src += Indent + "          for (long x = xb; x < xe; ++x)\n";
    Src += Indent + "            out[IDX3(x, y, z)] =\n";
    Src += Indent + "              " + emitExpression(Spec) + ";\n";
    Src += Indent + "        }\n";
    Src += Indent + "    }\n";
  } else {
    Src += Indent + "for (long z = 0; z < Nz; ++z)\n";
    Src += Indent + "  for (long y = 0; y < Ny; ++y) {\n";
    if (Opts.EmitSimdPragma)
      Src += Indent + "    #pragma omp simd\n";
    Src += Indent + "    for (long x = 0; x < Nx; ++x)\n";
    Src += Indent + "      out[IDX3(x, y, z)] =\n";
    Src += Indent + "        " + emitExpression(Spec) + ";\n";
    Src += Indent + "  }\n";
  }

  Src += "}\n";
  return Src;
}

std::string SourceEmitter::emitDsl(const StencilSpec &Spec,
                                   const std::string &Name) {
  std::string DefName = Name.empty() ? Spec.name() : Name;
  for (char &C : DefName)
    if (C == '-' || C == ':')
      C = '_';

  std::string Src = format("stencil %s {\n  grid ", DefName.c_str());
  unsigned NumIn = Spec.numInputGrids();
  for (unsigned G = 0; G < NumIn; ++G)
    Src += format("u%u, ", G);
  Src += "out;\n  out[x,y,z] =";

  auto Axis = [](const char *Name, int D) {
    if (D == 0)
      return std::string(Name);
    return format("%s%+d", Name, D);
  };
  bool First = true;
  for (const StencilPoint &P : Spec.points()) {
    double Coeff = P.Coeff;
    if (First) {
      Src += Coeff < 0 ? " -" : " ";
      First = false;
    } else {
      Src += Coeff < 0 ? "\n      - " : "\n      + ";
    }
    double Mag = Coeff < 0 ? -Coeff : Coeff;
    if (Mag != 1.0)
      Src += format("%.17g * ", Mag);
    Src += format("u%u[%s,%s,%s]", P.GridIdx, Axis("x", P.Dx).c_str(),
                  Axis("y", P.Dy).c_str(), Axis("z", P.Dz).c_str());
  }
  Src += ";\n}\n";
  return Src;
}

std::string SourceEmitter::emitTimeStepDriver(const StencilSpec &Spec,
                                              const KernelConfig &Config,
                                              const Options &Opts) {
  std::string Name = "kernel_" + Spec.name();
  for (char &C : Name)
    if (C == '-')
      C = '_';
  std::string Src;

  if (!Config.isTemporal()) {
    Src += "// Plain ping-pong time stepping.\n";
    Src += format("%svoid drive_%s(double *even, double *odd, long steps,\n"
                  "    long Nx, long Ny, long Nz, long PadX, long PadY) {\n",
                  linkagePrefix(Opts), Name.c_str());
    Src += "  for (long t = 0; t < steps; ++t) {\n";
    Src += format("    %s(even, odd, Nx, Ny, Nz, PadX, PadY);\n",
                  Name.c_str());
    Src += "    std::swap(even, odd);\n";
    Src += "  }\n";
    Src += "}\n";
    return Src;
  }

  // The z-slab kernel the temporal driver advances each time level
  // through: one sweep restricted to z in [z0, z1).  Slab order carries
  // the dependences, so parallelism lives inside the slab's y/x loops,
  // not across slabs.
  std::string Restrict = Opts.EmitRestrict ? " __restrict" : "";
  Src += "// One z-slab [z0, z1) of a single sweep.\n";
  Src += format("%svoid %s_slab(const double *%s u0, double *%s out,\n"
                "    long z0, long z1, long Nx, long Ny, "
                "long PadX, long PadY) {\n",
                linkagePrefix(Opts), Name.c_str(), Restrict.c_str(),
                Restrict.c_str());
  Src += "  for (long z = z0; z < z1; ++z)\n";
  Src += "    for (long y = 0; y < Ny; ++y) {\n";
  if (Opts.EmitSimdPragma)
    Src += "      #pragma omp simd\n";
  Src += "      for (long x = 0; x < Nx; ++x)\n";
  Src += "        out[IDX3(x, y, z)] =\n";
  Src += "          " + emitExpression(Spec) + ";\n";
  Src += "    }\n";
  Src += "}\n\n";

  // The macro step itself is data: the slab list KernelExecutor runs for
  // the same geometry, printed as a table the driver walks.
  long Bz = Config.Block.resolved(Opts.Dims).Z;
  SchedulePlan Plan = buildSchedulePlan(Config.Sched, Config.WavefrontDepth,
                                        Opts.Dims.Nz, Spec.radius(), Bz);
  Src += format("// Temporal %s schedule: depth %d, radius %d, Nz %ld, "
                "z-block %ld.\n",
                scheduleName(Config.Sched), Plan.Depth, Spec.radius(),
                Plan.Nz, Bz);
  Src += "// One macro step as {level, z0, z1} slabs in execution order;\n";
  Src += "// level s reads buffer (s-1)%2 and overwrites buffer s%2.\n";
  Src += format("static const long %s_slabs[][3] = {", Name.c_str());
  for (size_t I = 0; I < Plan.Slabs.size(); ++I) {
    const LevelSlab &L = Plan.Slabs[I];
    Src += format("%s{%d, %ld, %ld},", I % 4 == 0 ? "\n  " : " ", L.S,
                  L.Z0, L.Z1);
  }
  Src += "\n};\n";
  Src += format("%svoid drive_%s_temporal(double *even, double *odd,\n"
                "    long Nx, long Ny, long PadX, long PadY) {\n",
                linkagePrefix(Opts), Name.c_str());
  Src += format("  for (const long *slab : %s_slabs) {\n", Name.c_str());
  Src += "    const long s = slab[0];\n";
  Src += "    double *src = (s - 1) % 2 == 0 ? even : odd;\n";
  Src += "    double *dst = s % 2 == 0 ? even : odd;\n";
  Src += format("    %s_slab(src, dst, slab[1], slab[2], Nx, Ny, PadX, "
                "PadY);\n",
                Name.c_str());
  Src += "  }\n";
  Src += "}\n";
  return Src;
}

std::string SourceEmitter::emitTranslationUnit(const StencilSpec &Spec,
                                               const KernelConfig &Config,
                                               const Options &Opts) {
  std::string Src;
  Src += "// Auto-generated stencil kernel (YaskSite reproduction).\n";
  Src += format("// stencil   : %s (%s, radius %d, %u points)\n",
                Spec.name().c_str(), Spec.shapeName(), Spec.radius(),
                Spec.numPoints());
  Src += format("// config    : %s\n", Config.str().c_str());
  Src += format("// flops/LUP : %u (%u mul, %u add)\n", Spec.flopsPerLup(),
                Spec.mulsPerLup(), Spec.addsPerLup());
  const bool EmitDriver =
      Config.isTemporal() && Config.VectorFold.isScalar();
  if (Config.isTemporal())
    Src += format("// temporal %s depth %d is realized by the "
                  "driver loop, not this sweep kernel\n",
                  scheduleName(Config.Sched), Config.WavefrontDepth);
  Src += "\n#include <algorithm>\n\n";
  const Fold &F = Config.VectorFold;
  if (F.isScalar()) {
    Src += "// Grids are padded to PadX x PadY x PadZ with the halo folded\n";
    Src += "// into the origin; IDX3 addresses interior coordinates.\n";
    Src += "#define IDX3(x, y, z) (((z) * PadY + (y)) * PadX + (x))\n\n";
  } else {
    Src += "// Folded storage: the grid is an array of NVx*NVy*NVz\n";
    Src += "// (FOLD_X x FOLD_Y x FOLD_Z) blocks of FOLD_ELEMS contiguous\n";
    Src += "// doubles each; a SIMD register holds one block.\n";
    Src += format("#define FOLD_X %d\n#define FOLD_Y %d\n"
                  "#define FOLD_Z %d\n#define FOLD_ELEMS %d\n",
                  F.X, F.Y, F.Z, F.elems());
    Src += "// Floor division: negative deltas land in the preceding "
           "block.\n";
    Src += "#define FOLD_DIV(a, f) "
           "((a) >= 0 ? (a) / (f) : -((-(a) + (f) - 1) / (f)))\n";
    Src += "// Fold-linear offset of in-fold coordinate (gx, gy, gz)\n";
    Src += "// relative to its block's base index; the coordinates may\n";
    Src += "// reach into neighboring blocks.\n";
    Src += "#define FOLD_OFF(gx, gy, gz) \\\n";
    Src += "  (((FOLD_DIV((gz), FOLD_Z) * NVy + FOLD_DIV((gy), FOLD_Y)) * "
           "NVx + \\\n";
    Src += "    FOLD_DIV((gx), FOLD_X)) * FOLD_ELEMS + \\\n";
    Src += "   (((gz) - FOLD_DIV((gz), FOLD_Z) * FOLD_Z) * FOLD_Y + \\\n";
    Src += "    ((gy) - FOLD_DIV((gy), FOLD_Y) * FOLD_Y)) * FOLD_X + \\\n";
    Src += "   ((gx) - FOLD_DIV((gx), FOLD_X) * FOLD_X))\n\n";
  }
  Src += emitKernel(Spec, Config, Opts);
  // Temporal configs also get the slab kernel, slab table, and driver,
  // making the unit self-contained (every called function is defined).
  // The driver addresses the scalar layout, so folded temporal configs
  // keep the sweep kernel alone.
  if (EmitDriver)
    Src += "\n" + emitTimeStepDriver(Spec, Config, Opts);
  return Src;
}

JitGeometry::JitGeometry(const Grid &G)
    : Dims(G.dims()), Halo(G.halo()), F(G.fold()), PadX(G.padX()),
      PadY(G.padY()), PadZ(G.padZ()), NVx(G.numVecX()), NVy(G.numVecY()),
      NVz(G.numVecZ()) {}

JitGeometry JitGeometry::forDims(const GridDims &Dims, int Halo,
                                 const Fold &F) {
  auto RoundUp = [](long V, int M) { return (V + M - 1) / M * M; };
  JitGeometry G;
  G.Dims = Dims;
  G.Halo = Halo;
  G.F = F;
  G.PadX = RoundUp(Dims.Nx + 2L * Halo, F.X);
  G.PadY = RoundUp(Dims.Ny + 2L * Halo, F.Y);
  G.PadZ = RoundUp(Dims.Nz + 2L * Halo, F.Z);
  G.NVx = G.PadX / F.X;
  G.NVy = G.PadY / F.Y;
  G.NVz = G.PadZ / F.Z;
  return G;
}

bool JitGeometry::matches(const Grid &G) const {
  return G.dims() == Dims && G.halo() == Halo && G.fold() == F &&
         G.padX() == PadX && G.padY() == PadY && G.padZ() == PadZ;
}

std::string JitGeometry::str() const {
  return format("%s halo %d fold %s pad %ldx%ldx%ld", Dims.str().c_str(),
                Halo, F.str().c_str(), PadX, PadY, PadZ);
}

/// Index argument "<axis> + Halo [+/- delta]" in padded coordinates.
static std::string paddedArg(const char *Axis, int D) {
  if (D == 0)
    return format("%s + Halo", Axis);
  return format("%s + Halo %c %d", Axis, D > 0 ? '+' : '-', D > 0 ? D : -D);
}

std::string SourceEmitter::emitJitTranslationUnit(const StencilSpec &Spec,
                                                  const JitGeometry &G) {
  const Fold &F = G.F;
  const std::vector<StencilPoint> &Points = Spec.points();
  std::string Src;

  Src += "// Auto-generated JIT stencil kernel (YaskSite reproduction).\n";
  Src += format("// stencil  : %s (%s, radius %d, %u points)\n",
                Spec.name().c_str(), Spec.shapeName(), Spec.radius(),
                Spec.numPoints());
  Src += format("// geometry : %s\n", G.str().c_str());
  Src += "// Contract: computes one rectangular interior range of one\n";
  Src += "// sweep.  Accumulation is in spec point order and the build\n";
  Src += "// uses -ffp-contract=off, so results are bit-identical to the\n";
  Src += "// ReferenceInterpreter and the in-process KernelPlan path.\n";
  Src += "// Blocking, threading, and wavefront scheduling stay in\n";
  Src += "// KernelExecutor, which invokes this kernel once per range.\n\n";

  Src += "namespace {\n";
  Src += format("constexpr long PadX = %ld;\n", G.PadX);
  Src += format("constexpr long PadY = %ld;\n", G.PadY);
  Src += format("constexpr long Halo = %d;\n", G.Halo);
  if (F.isScalar()) {
    Src += "// Mirrors Grid::linearIndex for the scalar layout.\n";
    Src += "inline long ysIdx(long gx, long gy, long gz) {\n";
    Src += "  return (gz * PadY + gy) * PadX + gx;\n";
    Src += "}\n";
  } else {
    Src += format("constexpr long FoldX = %d;\n", F.X);
    Src += format("constexpr long FoldY = %d;\n", F.Y);
    Src += format("constexpr long FoldZ = %d;\n", F.Z);
    Src += format("constexpr long FoldElems = %d;\n", F.elems());
    Src += format("constexpr long NVX = %ld;\n", G.NVx);
    Src += format("constexpr long NVY = %ld;\n", G.NVy);
    Src += "// Mirrors Grid::linearIndex for the folded layout: block\n";
    Src += "// index times FoldElems plus the x-fastest in-fold lane.\n";
    Src += "// Padded coordinates are non-negative, so / and % agree with\n";
    Src += "// floor division, and the fold dims are literals, so the\n";
    Src += "// compiler strength-reduces the divisions.\n";
    Src += "inline long ysIdx(long gx, long gy, long gz) {\n";
    Src += "  const long vx = gx / FoldX, ix = gx % FoldX;\n";
    Src += "  const long vy = gy / FoldY, iy = gy % FoldY;\n";
    Src += "  const long vz = gz / FoldZ, iz = gz % FoldZ;\n";
    Src += "  return ((vz * NVY + vy) * NVX + vx) * FoldElems +\n";
    Src += "         (iz * FoldY + iy) * FoldX + ix;\n";
    Src += "}\n";
  }
  Src += "} // namespace\n\n";

  Src += format("extern \"C\" void %s(const double *const *ins, "
                "double *out,\n    long z0, long z1, long y0, long y1, "
                "long x0, long x1) {\n",
                jitKernelSymbol());
  for (unsigned In = 0; In < Spec.numInputGrids(); ++In)
    Src += format("  const double *__restrict u%u = ins[%u];\n", In, In);
  Src += "  for (long z = z0; z < z1; ++z)\n";
  Src += "    for (long y = y0; y < y1; ++y) {\n";
  Src += "      #pragma omp simd\n";
  Src += "      for (long x = x0; x < x1; ++x) {\n";

  std::string Expr;
  bool First = true;
  for (const StencilPoint &P : Points) {
    std::string Term = coeffFactor(P.Coeff);
    if (F.isScalar()) {
      // Neighbor offsets are layout constants in the scalar layout
      // (Grid::scalarNeighborOffset), so fold them into the literal.
      long Off = (static_cast<long>(P.Dz) * G.PadY + P.Dy) * G.PadX + P.Dx;
      if (Off == 0)
        Term += format("u%u[i]", P.GridIdx);
      else
        Term += format("u%u[i %c %ld]", P.GridIdx, Off > 0 ? '+' : '-',
                       Off > 0 ? Off : -Off);
    } else {
      Term += format("u%u[ysIdx(%s, %s, %s)]", P.GridIdx,
                     paddedArg("x", P.Dx).c_str(),
                     paddedArg("y", P.Dy).c_str(),
                     paddedArg("z", P.Dz).c_str());
    }
    if (!First)
      Expr += "\n            + ";
    Expr += Term;
    First = false;
  }

  if (F.isScalar()) {
    Src += "        const long i = ysIdx(x + Halo, y + Halo, z + Halo);\n";
    Src += "        out[i] =\n";
  } else {
    Src += "        out[ysIdx(x + Halo, y + Halo, z + Halo)] =\n";
  }
  Src += "            " + Expr + ";\n";
  Src += "      }\n";
  Src += "    }\n";
  Src += "}\n";
  return Src;
}
