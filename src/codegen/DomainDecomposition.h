//===- codegen/DomainDecomposition.h - Rank decomposition --------*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-process domain decomposition with overlapped halo exchange — the
/// substrate YASK uses for multi-rank (MPI) runs, simulated in-process.
///
/// The global grid splits into contiguous z-slabs ("ranks") using a
/// balanced floor+remainder partition.  Each rank's local grid interior
/// covers its owned planes *plus* an extension of up to Halo planes toward
/// every interior-facing neighbor (clipped at the global edges).  That
/// extension is the deep-halo scheme of Wittmann et al.: exchanging
/// Halo = k*radius planes once buys k fused time steps per rank, with the
/// extension planes recomputed redundantly — level s of a macro step is
/// exact from s*radius planes above the refreshed extension edge, so after
/// k levels the owned region is exact (and bit-identical to the monolithic
/// sweep, because every cell's arithmetic is unchanged).  Sides touching
/// the physical boundary need no refresh and no shrink: the global halo is
/// a constant-in-time Dirichlet boundary, exact at every level.
///
/// Two exchange paths feed a macro step:
///  * exchangeHalos() — the serial reference: element-wise neighbor copies
///    including the x/y halo rings, exactly what a bulk-synchronous step
///    would do before sweeping.
///  * packRun() + unpackRun() — the overlapped path: whole padded
///    z-planes are memcpy'd through per-run staging buffers (fold.Z == 1
///    keeps each plane contiguous; other folds fall back to element-wise
///    staging), and the copies run concurrently with interior compute on
///    the work-stealing pool.
///
/// haloBytesExchanged() counts the bytes each path actually moves (the
/// staged path moves every element twice: once into staging, once out).
///
//===----------------------------------------------------------------------===//

#ifndef YS_CODEGEN_DOMAINDECOMPOSITION_H
#define YS_CODEGEN_DOMAINDECOMPOSITION_H

#include "codegen/KernelExecutor.h"
#include "stencil/Grid.h"
#include "stencil/StencilSpec.h"
#include "support/AlignedBuffer.h"
#include "support/ThreadPool.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ys {

/// A grid distributed over R contiguous z-slab ranks with deep halos.
class DecomposedGrid {
public:
  /// Splits \p GlobalDims into \p Ranks z-slabs with halo depth \p Halo.
  /// The parameters must satisfy validateParams(); violations abort with
  /// a diagnostic in every build mode (release included).
  DecomposedGrid(GridDims GlobalDims, unsigned Ranks, int Halo,
                 Fold F = Fold());

  /// Empty when the decomposition is well-formed, else a diagnostic:
  /// Ranks < 1, Halo < 1, or Nz < Ranks (an empty slab).  Callers taking
  /// external parameters (driver, benches) check this before constructing.
  static std::string validateParams(const GridDims &GlobalDims,
                                    unsigned Ranks, int Halo);

  unsigned numRanks() const { return static_cast<unsigned>(Slabs.size()); }
  const GridDims &globalDims() const { return GlobalDims; }
  int halo() const { return Halo; }

  /// The local grid of one rank (owned planes + extensions, halo Halo).
  Grid &rank(unsigned R) { return *Slabs[R]; }
  const Grid &rank(unsigned R) const { return *Slabs[R]; }

  /// Global z-range [begin, end) owned by rank \p R.
  long rankZBegin(unsigned R) const { return ZBegin[R]; }
  long rankZEnd(unsigned R) const { return ZBegin[R + 1]; }

  /// Extension planes below/above the owned slab inside the local
  /// interior: min(Halo, distance to the respective global edge).  The
  /// owned slab occupies local z in [extLo, extLo + owned).
  long rankExtLo(unsigned R) const { return ExtLo[R]; }
  long rankExtHi(unsigned R) const { return ExtHi[R]; }

  /// True when side \p Low of rank \p R receives refreshed data from a
  /// neighbor each exchange (extension not clipped by the global edge).
  /// Clipped sides sit on the physical boundary and recompute their
  /// extension exactly without any exchange.
  bool sideExchanged(unsigned R, bool Low) const {
    return (Low ? ExtLo[R] : ExtHi[R]) == Halo;
  }

  /// Scatters a global grid into the slabs (interiors, extensions, and
  /// every addressable halo cell; local halo cells beyond the global
  /// grid's halo are zero-filled and never read by a sweep).
  void scatter(const Grid &Global);

  /// Gathers the slabs' owned planes into a global grid.
  void gather(Grid &Global) const;

  /// Serial reference exchange: refreshes every exchanged extension plane
  /// element-wise from its owner's current values, including the x/y halo
  /// ring (the bulk-synchronous baseline).  Counts exchanged bytes.
  void exchangeHalos();

  /// \name Staged (overlappable) exchange.
  ///
  /// One exchange = packRun(i) — run i's source planes memcpy'd into its
  /// staging slot — then unpackRun(i), for every run; the stepper runs
  /// the runs of each rank side (sideRuns) as one pool task next to
  /// interior compute.
  /// packRun only reads owned planes and unpackRun only writes extension
  /// planes of its destination rank, which no interior computation of
  /// the first fused level reads or writes, so copy and interior tasks
  /// are race-free by construction.
  /// @{

  /// Number of (source rank, destination rank, plane range) copy runs one
  /// exchange performs.  Fixed by the decomposition geometry.
  size_t numCopyRuns() const { return Runs.size(); }

  /// Stages all runs' source planes; parallelizes over runs when \p Pool
  /// is given (pure reads of the rank grids — safe).  Counts the bytes
  /// the full staged exchange (pack + unpack) moves.
  void packHalos(ThreadPool *Pool = nullptr);

  /// Copy runs [first, second) that fill rank \p R's extension on side
  /// \p Low; empty when that side is not exchanged.
  std::pair<size_t, size_t> sideRuns(unsigned R, bool Low) const {
    size_t I = 2 * static_cast<size_t>(R) + (Low ? 0 : 1);
    return {SideRunBegin[I], SideRunBegin[I + 1]};
  }

  /// Stages run \p I's source planes into its own staging slot.  Safe to
  /// call concurrently for all I, and with unpackRun of any run.
  void packRun(size_t I);

  /// Counts the bytes one full staged exchange moves, as packHalos()
  /// does; callers driving packRun() themselves call it once per exchange
  /// from the driving thread.
  void countStagedExchange() {
    HaloBytes += 2 * StagedElemsPerExchange * sizeof(double);
  }

  /// Copies run \p I from staging into its destination rank's extension
  /// planes.  Distinct runs write distinct planes: safe to call
  /// concurrently for all I.
  void unpackRun(size_t I);

  /// @}

  /// Bytes moved by all exchanges so far (both paths).
  unsigned long long haloBytesExchanged() const { return HaloBytes; }

private:
  /// One contiguous range of planes flowing SrcRank -> DstRank.
  struct CopyRun {
    unsigned SrcRank = 0;
    unsigned DstRank = 0;
    long SrcZ0 = 0;   ///< First source-local interior z plane.
    long DstZ0 = 0;   ///< First destination-local interior z plane.
    long Planes = 0;
    size_t StageOffset = 0; ///< Doubles into Stage.
  };

  void buildCopyRuns();
  void copyPlaneDirect(const Grid &Src, long SrcZ, Grid &Dst, long DstZ);
  void packPlane(const Grid &Src, long SrcZ, double *Out) const;
  void unpackPlane(const double *In, Grid &Dst, long DstZ) const;

  GridDims GlobalDims;
  int Halo;
  Fold F;
  std::vector<long> ZBegin; ///< Ranks + 1 entries (owned ranges).
  std::vector<long> ExtLo, ExtHi;
  std::vector<std::unique_ptr<Grid>> Slabs;

  std::vector<CopyRun> Runs;
  /// 2 * Ranks + 1 entries: runs of (rank R, low side) start at index 2R,
  /// of (rank R, high side) at 2R + 1.
  std::vector<size_t> SideRunBegin;
  AlignedBuffer<double> Stage;
  bool ContigPlanes = false; ///< fold.Z == 1: planes memcpy whole.
  size_t PlaneElems = 0;     ///< Doubles staged per plane.
  /// Doubles one serial exchangeHalos() moves / one staged exchange
  /// stages (the staged exchange moves 2x this: pack + unpack).
  unsigned long long SerialElemsPerExchange = 0;
  unsigned long long StagedElemsPerExchange = 0;
  unsigned long long HaloBytes = 0;
};

/// How DistributedStepper performs the per-macro-step exchange.
enum class ExchangeMode {
  Serial,    ///< Element-wise exchange, then rank sweeps (baseline).
  Overlapped ///< Staged memcpy exchange overlapped with interior compute.
};

/// Runs time steps of a single-input stencil on a decomposed grid with
/// one halo exchange per macro step of k = Halo/radius fused sweeps —
/// YASK's distributed stepping structure with deep halos.
///
/// Serial mode: exchange, then every rank advances k steps through its
/// own cached KernelExecutor::runTimeSteps (so wavefront / diamond /
/// deep-temporal schedules run their macro-step machinery per rank),
/// rank-parallel over the pool.
///
/// Overlapped mode: one pool region per fused level, tiled across every
/// rank.  At level 1 the staged halo copies of each exchanged side run,
/// followed by that side's boundary band, concurrently with the tiles of
/// every rank's *interior* — the planes independent of incoming halo
/// data — hiding communication under T_interior; later levels tile the
/// whole frontier.  All paths are bit-identical on the owned region.
class DistributedStepper {
public:
  DistributedStepper(StencilSpec Spec, KernelConfig Config);
  ~DistributedStepper();

  const KernelConfig &config() const { return Config; }

  ExchangeMode exchangeMode() const { return Mode; }
  void setExchangeMode(ExchangeMode M) { Mode = M; }

  /// Forces the kernel backend (plan / JIT) of every rank executor.
  void setBackend(KernelBackend B);

  /// Fused sweeps one exchange with halo depth \p Halo amortizes:
  /// max(1, Halo / radius).
  int stepsPerExchange(int Halo) const;

  /// Advances \p U (and its scratch twin \p V) by \p Steps sweeps.  The
  /// result lands in U's owned planes.
  void runTimeSteps(DecomposedGrid &U, DecomposedGrid &V, int Steps,
                    ThreadPool *Pool = nullptr) const;

  /// Exchange rounds performed by runTimeSteps calls so far — the handle
  /// proving deep halos amortize: Steps sweeps cost
  /// ceil(Steps / stepsPerExchange(halo)) rounds, not Steps.
  unsigned long long exchangeRounds() const { return ExchangeRounds; }

private:
  KernelExecutor &rankExec(unsigned R) const;
  void runMacroSerial(DecomposedGrid &Src, DecomposedGrid &Dst, int K,
                      ThreadPool *Pool) const;
  void runMacroOverlapped(DecomposedGrid &Src, DecomposedGrid &Dst, int K,
                          ThreadPool *Pool) const;

  StencilSpec Spec;
  KernelConfig Config;
  ExchangeMode Mode = ExchangeMode::Overlapped;
  std::optional<KernelBackend> BackendOverride;
  /// Per-rank executors: plans are geometry-keyed and bindBuffers mutates
  /// executor state, so concurrent ranks must never share one.  Lazily
  /// sized on first run; mutable like the executor's own plan cache.
  mutable std::vector<std::unique_ptr<KernelExecutor>> RankExecs;
  /// One overlapped region's tasks: z x y level tiles of a rank, and at
  /// level 1 the edge tasks of each exchanged side (Side 0 = low, 1 =
  /// high; -1 = plain tile).  Reused across macro steps so steady-state
  /// stepping does not allocate.
  struct LevelTile {
    unsigned Rank;
    int Side;
    long Z0, Z1, Y0, Y1;
  };
  mutable std::vector<LevelTile> Tiles;
  mutable unsigned long long ExchangeRounds = 0;
};

} // namespace ys

#endif // YS_CODEGEN_DOMAINDECOMPOSITION_H
