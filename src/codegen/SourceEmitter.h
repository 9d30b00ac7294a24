//===- codegen/SourceEmitter.h - YASK-style C++ emission ---------*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the C++ source a YASK-style code generator would produce for a
/// stencil under a kernel configuration: the blocked OpenMP loop nest, the
/// SIMD inner loop, and the unrolled stencil expression.  Folded configs
/// emit the same fold-aware shape the in-process KernelPlan fast path
/// executes: per-point fold-linear offset tables built once per sweep and
/// a `#pragma omp simd` lane loop per fold block.  The emitted text is
/// golden-tested and compilable; coefficients are printed with
/// shortest-round-trip precision so a compiled kernel reproduces the
/// interpreter arithmetic bit-for-bit.  Execution goes through
/// KernelExecutor, either via the in-process KernelPlan path or — for the
/// `jit` backend — by compiling emitJitTranslationUnit() with the system
/// compiler and dlopen-ing the result (see codegen/JitCompiler.h).
///
//===----------------------------------------------------------------------===//

#ifndef YS_CODEGEN_SOURCEEMITTER_H
#define YS_CODEGEN_SOURCEEMITTER_H

#include "codegen/KernelConfig.h"
#include "stencil/Grid.h"
#include "stencil/StencilSpec.h"

#include <string>

namespace ys {

/// Grid geometry baked into a JIT translation unit as compile-time
/// constants.  The JIT kernel computes rectangular interior ranges, so
/// everything the index arithmetic needs — pads, halo, fold — is fixed at
/// compile time and only the range bounds vary per call.
struct JitGeometry {
  GridDims Dims;     ///< Interior extent (comment/diagnostics only).
  int Halo = 1;      ///< Halo width folded into the padded origin.
  Fold F;            ///< Storage fold (scalar = {1,1,1}).
  long PadX = 0, PadY = 0, PadZ = 0; ///< Padded extent in cells.
  long NVx = 0, NVy = 0, NVz = 0;    ///< Padded extent in fold blocks.

  JitGeometry() = default;
  explicit JitGeometry(const Grid &G);

  /// The geometry a Grid(\p Dims, \p Halo, \p F) would have, without
  /// allocating one (pads round the haloed extent up to the fold).
  static JitGeometry forDims(const GridDims &Dims, int Halo, const Fold &F);

  /// True when \p G has exactly this geometry (a kernel compiled for this
  /// geometry is valid for \p G).
  bool matches(const Grid &G) const;

  std::string str() const;
};

/// Generates compilable C++ kernel source for a stencil + configuration.
class SourceEmitter {
public:
  /// Options controlling the emitted style.
  struct Options {
    bool EmitOpenMP = true;     ///< #pragma omp on the outer loop.
    bool EmitSimdPragma = true; ///< #pragma omp simd on the inner loop.
    bool EmitRestrict = true;   ///< __restrict on pointer parameters.
    bool EmitExternC = false;   ///< extern "C" linkage on every function,
                                ///< so dlsym() finds unmangled names.
    std::string FunctionName;   ///< Defaults to "kernel_<stencil name>".
    /// Grid extent the temporal driver's slab table is built for (the
    /// JIT unit's default geometry unless the caller knows the grid).
    GridDims Dims{32, 32, 32};
  };

  /// Emits the kernel function for one sweep of \p Spec under \p Config.
  static std::string emitKernel(const StencilSpec &Spec,
                                const KernelConfig &Config,
                                const Options &Opts);
  static std::string emitKernel(const StencilSpec &Spec,
                                const KernelConfig &Config) {
    return emitKernel(Spec, Config, Options());
  }

  /// Emits a self-contained translation unit: header comment, index macro,
  /// and the kernel function.
  static std::string emitTranslationUnit(const StencilSpec &Spec,
                                         const KernelConfig &Config,
                                         const Options &Opts);
  static std::string emitTranslationUnit(const StencilSpec &Spec,
                                         const KernelConfig &Config) {
    return emitTranslationUnit(Spec, Config, Options());
  }

  /// Renders the stencil expression as C++ (e.g. "0.5 * u0[IDX3(x,y,z)]
  /// + ...").
  static std::string emitExpression(const StencilSpec &Spec);

  /// Renders a stencil spec back to DSL source text (a `stencil`
  /// definition parseable by the front end) — the round-trip companion of
  /// the parser, used to persist programmatically built stencils.
  static std::string emitDsl(const StencilSpec &Spec,
                             const std::string &Name = std::string());

  /// Emits the multi-timestep driver around the sweep kernel: a plain
  /// ping-pong loop `drive_<name>` for non-temporal configs, otherwise
  /// one temporal macro step `drive_<name>_temporal(even, odd, Nx, Ny,
  /// PadX, PadY)` that walks a static `<name>_slabs` table — the
  /// buildSchedulePlan() slab list KernelExecutor::runTimeSteps runs for
  /// Opts.Dims — through the `<name>_slab` z-range kernel emitted before
  /// it, so the driver is self-contained and linkable.
  static std::string emitTimeStepDriver(const StencilSpec &Spec,
                                        const KernelConfig &Config,
                                        const Options &Opts);
  static std::string emitTimeStepDriver(const StencilSpec &Spec,
                                        const KernelConfig &Config) {
    return emitTimeStepDriver(Spec, Config, Options());
  }

  /// Symbol name of the range kernel emitted by emitJitTranslationUnit().
  static const char *jitKernelSymbol() { return "ys_jit_kernel"; }

  /// Emits the translation unit the runtime JIT backend compiles: one
  /// extern "C" range kernel
  ///
  ///   void ys_jit_kernel(const double *const *ins, double *out,
  ///                      long z0, long z1, long y0, long y1,
  ///                      long x0, long x1);
  ///
  /// computing one rectangular interior range of one sweep, with the grid
  /// geometry \p G (pads, halo, fold) baked in as compile-time constants.
  /// Blocking, threading, and wavefront scheduling stay in
  /// KernelExecutor, which calls this kernel per range — so one compiled
  /// object serves every (block, threads, wavefront) variant of a
  /// (stencil, fold, geometry) triple.  Accumulation is in spec point
  /// order; compiled with -ffp-contract=off the result is bit-identical
  /// to the ReferenceInterpreter and the KernelPlan path.
  static std::string emitJitTranslationUnit(const StencilSpec &Spec,
                                            const JitGeometry &G);
};

} // namespace ys

#endif // YS_CODEGEN_SOURCEEMITTER_H
