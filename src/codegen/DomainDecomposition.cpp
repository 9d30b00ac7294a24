//===- codegen/DomainDecomposition.cpp - Rank decomposition ------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/DomainDecomposition.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace ys;

std::string DecomposedGrid::validateParams(const GridDims &GlobalDims,
                                           unsigned Ranks, int Halo) {
  if (Ranks < 1)
    return "need at least one rank";
  if (Halo < 1)
    return "halo depth must be >= 1";
  if (GlobalDims.Nz < static_cast<long>(Ranks))
    return "more ranks (" + std::to_string(Ranks) + ") than z planes (" +
           std::to_string(GlobalDims.Nz) + "): every rank needs at least "
           "one owned plane";
  return "";
}

DecomposedGrid::DecomposedGrid(GridDims GlobalDims, unsigned Ranks,
                               int Halo, Fold F)
    : GlobalDims(GlobalDims), Halo(Halo), F(F) {
  std::string Err = validateParams(GlobalDims, Ranks, Halo);
  if (!Err.empty()) {
    // Survives release builds: a mis-sized decomposition would silently
    // compute on empty slabs, so fail loudly in every build mode.
    std::fprintf(stderr, "ys: DecomposedGrid: %s\n", Err.c_str());
    std::abort();
  }

  // Balanced floor+remainder split: the first Nz % Ranks slabs get one
  // extra plane, so no slab is empty and extents differ by at most one.
  long Base = GlobalDims.Nz / Ranks;
  long Rem = GlobalDims.Nz % Ranks;
  ZBegin.push_back(0);
  for (unsigned R = 0; R < Ranks; ++R)
    ZBegin.push_back(ZBegin.back() + Base +
                     (static_cast<long>(R) < Rem ? 1 : 0));
  assert(ZBegin.back() == GlobalDims.Nz && "split does not cover domain");

  for (unsigned R = 0; R < Ranks; ++R) {
    long Own = ZBegin[R + 1] - ZBegin[R];
    // Deep-halo extension: up to Halo redundantly-computed planes toward
    // each interior-facing neighbor, clipped at the global edges (sides
    // on the physical boundary are exact without them).
    ExtLo.push_back(std::min<long>(Halo, ZBegin[R]));
    ExtHi.push_back(std::min<long>(Halo, GlobalDims.Nz - ZBegin[R + 1]));
    GridDims Local{GlobalDims.Nx, GlobalDims.Ny,
                   ExtLo[R] + Own + ExtHi[R]};
    Slabs.push_back(std::make_unique<Grid>(Local, Halo, F));
  }

  buildCopyRuns();
}

void DecomposedGrid::buildCopyRuns() {
  // Every rank's exchanged extension pulls the owners' current values of
  // the global planes it shadows.  With deep halos and small slabs an
  // extension can span several owner ranks, so the needed planes are
  // grouped into per-owner contiguous runs.
  ContigPlanes = F.Z == 1;
  const Grid &Proto = *Slabs[0];
  PlaneElems = ContigPlanes
                   ? static_cast<size_t>(Proto.numVecX()) *
                         Proto.numVecY() * Proto.foldElems()
                   : static_cast<size_t>(GlobalDims.Nx + 2 * Halo) *
                         (GlobalDims.Ny + 2 * Halo);

  auto OwnerOf = [&](long G) {
    unsigned O = static_cast<unsigned>(
        std::upper_bound(ZBegin.begin(), ZBegin.end(), G) -
        ZBegin.begin() - 1);
    assert(O < numRanks() && "plane has no owner");
    return O;
  };

  size_t Offset = 0;
  auto AddRange = [&](unsigned Dst, long GFirst, long GLast,
                      long DstZFirst) {
    // [GFirst, GLast) global planes landing at local z DstZFirst... in Dst.
    long G = GFirst;
    while (G < GLast) {
      unsigned O = OwnerOf(G);
      long RunEnd = std::min(GLast, ZBegin[O + 1]);
      CopyRun Run;
      Run.SrcRank = O;
      Run.DstRank = Dst;
      Run.SrcZ0 = ExtLo[O] + (G - ZBegin[O]);
      Run.DstZ0 = DstZFirst + (G - GFirst);
      Run.Planes = RunEnd - G;
      Run.StageOffset = Offset;
      Offset += static_cast<size_t>(Run.Planes) * PlaneElems;
      Runs.push_back(Run);
      G = RunEnd;
    }
  };

  for (unsigned R = 0; R < numRanks(); ++R) {
    long Own = ZBegin[R + 1] - ZBegin[R];
    SideRunBegin.push_back(Runs.size());
    if (sideExchanged(R, /*Low=*/true))
      AddRange(R, ZBegin[R] - Halo, ZBegin[R], /*DstZFirst=*/0);
    SideRunBegin.push_back(Runs.size());
    if (sideExchanged(R, /*Low=*/false))
      AddRange(R, ZBegin[R + 1], ZBegin[R + 1] + Halo,
               /*DstZFirst=*/ExtLo[R] + Own);
  }
  SideRunBegin.push_back(Runs.size());

  Stage.allocate(Offset);
  Stage.zero();
  unsigned long long TotalPlanes = 0;
  for (const CopyRun &Run : Runs)
    TotalPlanes += static_cast<unsigned long long>(Run.Planes);
  SerialElemsPerExchange =
      TotalPlanes * static_cast<unsigned long long>(GlobalDims.Nx + 2 * Halo) *
      (GlobalDims.Ny + 2 * Halo);
  StagedElemsPerExchange = TotalPlanes * PlaneElems;
}

namespace {

/// Copies cells x in [X0, X0 + Len) of row (Y, SrcZ) of \p Src into row
/// (Y, DstZ) of \p Dst, one memcpy per overlap of the two grids' runs (any
/// folds and halos).
void copyRowRange(const Grid &Src, long SrcZ, Grid &Dst, long DstZ, long Y,
                  long X0, long Len) {
  const double *S = Src.data();
  double *D = Dst.data();
  Dst.forEachRowRun(X0, Len, Y, DstZ, [&](size_t DI, long X, long Run) {
    Src.forEachRowRun(X, Run, Y, SrcZ, [&](size_t SI, long SX, long SRun) {
      std::memcpy(D + DI + (SX - X), S + SI,
                  static_cast<size_t>(SRun) * sizeof(double));
    });
  });
}

/// Zeroes cells x in [X0, X0 + Len) of row (Y, Z) of \p G.
void zeroRowRange(Grid &G, long Y, long Z, long X0, long Len) {
  if (Len <= 0)
    return;
  double *D = G.data();
  G.forEachRowRun(X0, Len, Y, Z, [&](size_t I, long, long Run) {
    std::memset(D + I, 0, static_cast<size_t>(Run) * sizeof(double));
  });
}

} // namespace

void DecomposedGrid::scatter(const Grid &Global) {
  assert(Global.dims() == GlobalDims && "global dims mismatch");
  // Local halo cells past the global grid's halo have no source value;
  // they are zero-filled and never read by a sweep (reads reach at most
  // radius <= halo() past the interior).  The in-range x extent is the
  // same for every row.
  const long GH = Global.halo();
  const long Nx = GlobalDims.Nx, Ny = GlobalDims.Ny;
  const long XLo = -std::min<long>(Halo, GH);
  const long XHi = Nx + std::min<long>(Halo, GH);
  for (unsigned R = 0; R < numRanks(); ++R) {
    Grid &Local = *Slabs[R];
    long Z0 = ZBegin[R] - ExtLo[R]; // Global plane of local z == 0.
    long NzLoc = Local.dims().Nz;
    for (long Z = -Halo; Z < NzLoc + Halo; ++Z) {
      long Gz = Z0 + Z;
      bool ZIn = Gz >= -GH && Gz < GlobalDims.Nz + GH;
      for (long Y = -Halo; Y < Ny + Halo; ++Y) {
        if (!ZIn || Y < -GH || Y >= Ny + GH) {
          zeroRowRange(Local, Y, Z, -Halo, Nx + 2 * Halo);
          continue;
        }
        zeroRowRange(Local, Y, Z, -Halo, XLo + Halo);
        copyRowRange(Global, Gz, Local, Z, Y, XLo, XHi - XLo);
        zeroRowRange(Local, Y, Z, XHi, Nx + Halo - XHi);
      }
    }
  }
}

void DecomposedGrid::gather(Grid &Global) const {
  assert(Global.dims() == GlobalDims && "global dims mismatch");
  for (unsigned R = 0; R < numRanks(); ++R) {
    long Own = ZBegin[R + 1] - ZBegin[R];
    for (long Z = 0; Z < Own; ++Z)
      for (long Y = 0; Y < GlobalDims.Ny; ++Y)
        copyRowRange(*Slabs[R], ExtLo[R] + Z, Global, ZBegin[R] + Z, Y, 0,
                     GlobalDims.Nx);
  }
}

void DecomposedGrid::copyPlaneDirect(const Grid &Src, long SrcZ, Grid &Dst,
                                     long DstZ) {
  // The serial reference path copies the x/y halo ring too — it holds the
  // same physical boundary values on both sides, so this is value-neutral,
  // but it is what the element-wise loop actually moves and therefore what
  // the byte counter must account.
  for (long Y = -Halo; Y < GlobalDims.Ny + Halo; ++Y)
    for (long X = -Halo; X < GlobalDims.Nx + Halo; ++X)
      Dst.at(X, Y, DstZ) = Src.at(X, Y, SrcZ);
}

void DecomposedGrid::exchangeHalos() {
  for (const CopyRun &Run : Runs) {
    const Grid &Src = *Slabs[Run.SrcRank];
    Grid &Dst = *Slabs[Run.DstRank];
    for (long P = 0; P < Run.Planes; ++P)
      copyPlaneDirect(Src, Run.SrcZ0 + P, Dst, Run.DstZ0 + P);
  }
  HaloBytes += SerialElemsPerExchange * sizeof(double);
}

void DecomposedGrid::packPlane(const Grid &Src, long SrcZ,
                               double *Out) const {
  if (ContigPlanes) {
    // fold.Z == 1 keeps every padded z-plane contiguous: one memcpy of
    // numVecX*numVecY fold blocks starting at the plane's first lane.
    std::memcpy(Out, Src.data() + Src.linearIndex(-Halo, -Halo, SrcZ),
                PlaneElems * sizeof(double));
    return;
  }
  size_t I = 0;
  for (long Y = -Halo; Y < GlobalDims.Ny + Halo; ++Y)
    for (long X = -Halo; X < GlobalDims.Nx + Halo; ++X)
      Out[I++] = Src.at(X, Y, SrcZ);
}

void DecomposedGrid::unpackPlane(const double *In, Grid &Dst,
                                 long DstZ) const {
  if (ContigPlanes) {
    std::memcpy(Dst.data() + Dst.linearIndex(-Halo, -Halo, DstZ), In,
                PlaneElems * sizeof(double));
    return;
  }
  size_t I = 0;
  for (long Y = -Halo; Y < GlobalDims.Ny + Halo; ++Y)
    for (long X = -Halo; X < GlobalDims.Nx + Halo; ++X)
      Dst.at(X, Y, DstZ) = In[I++];
}

void DecomposedGrid::packHalos(ThreadPool *Pool) {
  auto PackRun = [&](long I) { packRun(static_cast<size_t>(I)); };
  if (Pool && Pool->numThreads() > 1 && Runs.size() > 1)
    Pool->parallelFor(0, static_cast<long>(Runs.size()), PackRun);
  else
    for (size_t I = 0; I < Runs.size(); ++I)
      PackRun(static_cast<long>(I));
  // One staged exchange moves every element twice (grid -> staging ->
  // grid); count it here so the concurrent unpackRun calls stay free of
  // shared-counter writes.
  countStagedExchange();
}

void DecomposedGrid::packRun(size_t I) {
  const CopyRun &Run = Runs[I];
  const Grid &Src = *Slabs[Run.SrcRank];
  for (long P = 0; P < Run.Planes; ++P)
    packPlane(Src, Run.SrcZ0 + P,
              Stage.data() + Run.StageOffset +
                  static_cast<size_t>(P) * PlaneElems);
}

void DecomposedGrid::unpackRun(size_t I) {
  const CopyRun &Run = Runs[I];
  Grid &Dst = *Slabs[Run.DstRank];
  for (long P = 0; P < Run.Planes; ++P)
    unpackPlane(Stage.data() + Run.StageOffset +
                    static_cast<size_t>(P) * PlaneElems,
                Dst, Run.DstZ0 + P);
}

//===----------------------------------------------------------------------===//
// DistributedStepper
//===----------------------------------------------------------------------===//

DistributedStepper::DistributedStepper(StencilSpec Spec, KernelConfig Config)
    : Spec(std::move(Spec)), Config(Config) {
  assert(this->Spec.numInputGrids() == 1 &&
         "distributed stepping requires a single-input stencil");
  assert(this->Config.validate().empty() && "invalid kernel config");
}

DistributedStepper::~DistributedStepper() = default;

void DistributedStepper::setBackend(KernelBackend B) {
  BackendOverride = B;
  for (auto &Exec : RankExecs)
    if (Exec)
      Exec->setBackend(B);
}

int DistributedStepper::stepsPerExchange(int Halo) const {
  int R = std::max(1, Spec.radius());
  return std::max(1, Halo / R);
}

KernelExecutor &DistributedStepper::rankExec(unsigned R) const {
  assert(R < RankExecs.size() && "rank executor not provisioned");
  if (!RankExecs[R]) {
    RankExecs[R] = std::make_unique<KernelExecutor>(Spec, Config);
    if (BackendOverride)
      RankExecs[R]->setBackend(*BackendOverride);
  }
  return *RankExecs[R];
}

void DistributedStepper::runMacroSerial(DecomposedGrid &Src,
                                        DecomposedGrid &Dst, int K,
                                        ThreadPool *Pool) const {
  // Every rank advances K fused steps through its own executor — the
  // full macro-step machinery (wavefront/diamond/deep-temporal) runs
  // per rank.  runTimeSteps lands the result back in Src's rank grid,
  // so no buffer swap happens at this level.
  auto StepRank = [&](long R) {
    rankExec(static_cast<unsigned>(R))
        .runTimeSteps(Src.rank(static_cast<unsigned>(R)),
                      Dst.rank(static_cast<unsigned>(R)), K,
                      /*Pool=*/nullptr);
  };
  if (Pool && Pool->numThreads() > 1)
    Pool->parallelFor(0, Src.numRanks(), StepRank);
  else
    for (unsigned R = 0; R < Src.numRanks(); ++R)
      StepRank(R);
}

void DistributedStepper::runMacroOverlapped(DecomposedGrid &Src,
                                            DecomposedGrid &Dst, int K,
                                            ThreadPool *Pool) const {
  // Two-buffer parity over the macro step: level s lands in Src when s is
  // even (level 0 = Src).  Rank Ri's level s is exact on the frontier
  //
  //     [BLo, BHi) = [s*R, NzLoc - s*R)            (exchanged sides shrink)
  //
  // and its interior [ILo, IHi) = [extLo + s*R, NzLoc - extHi - s*R) does
  // not depend on the incoming extension planes.  Each level is one pool
  // region over every rank, cut into (z chunk, y block) tiles so all pool
  // threads share the work whatever the rank count:
  //
  //   level 1: one edge task per exchanged side — that side's halo copy
  //            runs, then its level-1 band [BLo, ILo) or [IHi, BHi) —
  //            next to the level-1 interior tiles
  //   level s (2..K): the whole frontier
  //
  // Race-freedom at level 1: Src is written only by the unpacks, into
  // extension planes [0, extLo) and [NzLoc - extHi, NzLoc).  A pack reads
  // owned planes, the interior reads Src [extLo, NzLoc - extHi), and a
  // band reads only its own side's extension plus owned planes short of
  // the other side's (a rank has at least 2R owned planes, or its level 1
  // waits for a region of its own once both sides have landed).  Every
  // region computes one level — it reads one buffer and writes the other
  // over disjoint tiles — so each rank executor stays bound to one buffer
  // pair while its tiles run, and the pool barrier orders the levels.
  long R = std::max(1, Spec.radius());
  unsigned NumRanks = Src.numRanks();
  unsigned Threads = Pool ? Pool->numThreads() : 1;

  struct LevelRanges {
    long BLo, BHi, ILo, IHi;
  };
  auto Ranges = [&](unsigned Ri, long S) {
    long NzLoc = Src.rank(Ri).dims().Nz;
    bool XLo = Src.sideExchanged(Ri, true);
    bool XHi = Src.sideExchanged(Ri, false);
    return LevelRanges{XLo ? S * R : 0, XHi ? NzLoc - S * R : NzLoc,
                       XLo ? Src.rankExtLo(Ri) + S * R : 0,
                       XHi ? NzLoc - Src.rankExtHi(Ri) - S * R : NzLoc};
  };
  // Level-1 bands that would overlap (fewer than 2R owned planes between
  // two exchanged sides): the rank's level 1 waits for both sides' halos.
  auto Small = [&](unsigned Ri) {
    LevelRanges L = Ranges(Ri, 1);
    return L.IHi < L.ILo;
  };
  bool AnySmall = false;
  for (unsigned Ri = 0; Ri < NumRanks; ++Ri)
    AnySmall |= Small(Ri);

  // Rank Ri's tiled z range in region Reg: the level-1 interior, a small
  // rank's whole level-1 frontier (region 1), or level Reg's frontier.
  struct ZRange {
    long Z0, Z1;
  };
  auto Span = [&](unsigned Ri, int Reg) {
    LevelRanges L = Ranges(Ri, std::max(1, Reg));
    if (Reg == 0)
      return Small(Ri) ? ZRange{0, 0} : ZRange{L.ILo, L.IHi};
    if (Reg == 1 && !Small(Ri))
      return ZRange{0, 0};
    return ZRange{L.BLo, L.BHi};
  };

  for (int Reg = 0; Reg <= K; ++Reg) {
    if (Reg == 1 && !AnySmall)
      continue;
    long Planes = 0;
    for (unsigned Ri = 0; Ri < NumRanks; ++Ri) {
      ZRange Z = Span(Ri, Reg);
      Planes += std::max(0L, Z.Z1 - Z.Z0);
    }

    Tiles.clear();
    for (unsigned Ri = 0; Ri < NumRanks; ++Ri) {
      const GridDims &Dims = Src.rank(Ri).dims();
      rankExec(Ri).bindLevel(Src.rank(Ri), Dst.rank(Ri), std::max(1, Reg));
      if (Reg == 0) {
        LevelRanges L = Ranges(Ri, 1);
        bool NoBand = Small(Ri);
        if (Src.sideExchanged(Ri, true))
          Tiles.push_back({Ri, 0, L.BLo, NoBand ? L.BLo : L.ILo, 0, Dims.Ny});
        if (Src.sideExchanged(Ri, false))
          Tiles.push_back({Ri, 1, NoBand ? L.BHi : L.IHi, L.BHi, 0, Dims.Ny});
      }
      // About four tiles per pool thread, none thicker than the z block.
      BlockSize B = Config.Block.resolved(Dims);
      long ZT = std::max(1L, std::min(B.Z, Planes / (4L * Threads)));
      ZRange Z = Span(Ri, Reg);
      for (long Z0 = Z.Z0; Z0 < Z.Z1; Z0 += ZT)
        for (long Y = 0; Y < Dims.Ny; Y += B.Y)
          Tiles.push_back({Ri, -1, Z0, std::min(Z0 + ZT, Z.Z1), Y,
                           std::min(Y + B.Y, Dims.Ny)});
    }

    auto Task = [&](long T) {
      const LevelTile &L = Tiles[static_cast<size_t>(T)];
      if (L.Side >= 0) {
        auto Runs = Src.sideRuns(L.Rank, L.Side == 0);
        for (size_t I = Runs.first; I < Runs.second; ++I) {
          Src.packRun(I);
          Src.unpackRun(I);
        }
      }
      const GridDims &Dims = Src.rank(L.Rank).dims();
      long BY = Config.Block.resolved(Dims).Y;
      for (long Y = L.Y0; Y < L.Y1 && L.Z0 < L.Z1; Y += BY)
        rankExec(L.Rank).runLevelTile(Dims, L.Z0, L.Z1, Y,
                                      std::min(Y + BY, L.Y1));
    };
    long NumTasks = static_cast<long>(Tiles.size());
    if (Pool && Threads > 1)
      Pool->parallelForTiles(NumTasks, 1,
                             [&](unsigned, long T, long) { Task(T); });
    else
      for (long T = 0; T < NumTasks; ++T)
        Task(T);
  }
}

void DistributedStepper::runTimeSteps(DecomposedGrid &U, DecomposedGrid &V,
                                      int Steps, ThreadPool *Pool) const {
  assert(U.numRanks() == V.numRanks() && "rank count mismatch");
  assert(U.halo() == V.halo() && "halo mismatch");
  assert(U.halo() >= Spec.radius() && "halo smaller than stencil radius");
  assert(Steps >= 0 && "negative step count");

  // Provision (and backend-prepare) every rank executor on the calling
  // thread: executors and their plan/JIT caches are mutable state that
  // must never be created from inside concurrent pool tasks.
  RankExecs.resize(U.numRanks());
  for (unsigned R = 0; R < U.numRanks(); ++R)
    rankExec(R).prepare(U.rank(R));

  if (U.numRanks() == 1) {
    // Single rank: no exchange; delegate with full pool parallelism.
    rankExec(0).runTimeSteps(U.rank(0), V.rank(0), Steps, Pool);
    return;
  }

  int K = stepsPerExchange(U.halo());
  DecomposedGrid *Src = &U;
  DecomposedGrid *Dst = &V;
  int Done = 0;
  while (Done < Steps) {
    int Fused = std::min(K, Steps - Done);
    ++ExchangeRounds;
    if (Mode == ExchangeMode::Serial) {
      Src->exchangeHalos();
      runMacroSerial(*Src, *Dst, Fused, Pool);
      // Result landed back in Src.
    } else {
      Src->countStagedExchange();
      runMacroOverlapped(*Src, *Dst, Fused, Pool);
      if (Fused % 2 != 0)
        std::swap(Src, Dst);
    }
    Done += Fused;
  }

  if (Src != &U)
    for (unsigned R = 0; R < U.numRanks(); ++R)
      U.rank(R).copyInteriorFrom(Src->rank(R), Pool);
}
