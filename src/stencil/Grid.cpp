//===- stencil/Grid.cpp - 3-D grid with halo and folded layout ------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "stencil/Grid.h"

#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace ys;

std::string Fold::str() const {
  return format("%dx%dx%d", X, Y, Z);
}

std::string GridDims::str() const {
  return format("%ldx%ldx%ld", Nx, Ny, Nz);
}

static long roundUp(long Value, long Multiple) {
  return (Value + Multiple - 1) / Multiple * Multiple;
}

Grid::Grid(GridDims Dims, int Halo, Fold F)
    : Dims(Dims), Halo(Halo), F(F), ScalarLayout(F.isScalar()) {
  assert(Dims.Nx > 0 && Dims.Ny > 0 && Dims.Nz > 0 && "empty grid");
  assert(Halo >= 0 && "negative halo");
  assert(F.X > 0 && F.Y > 0 && F.Z > 0 && "degenerate fold");
  PadX = roundUp(Dims.Nx + 2L * Halo, F.X);
  PadY = roundUp(Dims.Ny + 2L * Halo, F.Y);
  PadZ = roundUp(Dims.Nz + 2L * Halo, F.Z);
  NVx = PadX / F.X;
  NVy = PadY / F.Y;
  NVz = PadZ / F.Z;
  Store.allocate(static_cast<size_t>(PadX) * PadY * PadZ);
  Store.zero();
}

Grid::Grid(GridDims Dims, int Halo, Fold F, ThreadPool *FirstTouchPool,
           long ZTile, long YTile)
    : Dims(Dims), Halo(Halo), F(F), ScalarLayout(F.isScalar()) {
  assert(Dims.Nx > 0 && Dims.Ny > 0 && Dims.Nz > 0 && "empty grid");
  assert(Halo >= 0 && "negative halo");
  assert(F.X > 0 && F.Y > 0 && F.Z > 0 && "degenerate fold");
  PadX = roundUp(Dims.Nx + 2L * Halo, F.X);
  PadY = roundUp(Dims.Ny + 2L * Halo, F.Y);
  PadZ = roundUp(Dims.Nz + 2L * Halo, F.Z);
  NVx = PadX / F.X;
  NVy = PadY / F.Y;
  NVz = PadZ / F.Z;
  Store.allocate(static_cast<size_t>(PadX) * PadY * PadZ);
  firstTouch(FirstTouchPool, ZTile, YTile);
}

void Grid::firstTouch(ThreadPool *Pool, long ZTile, long YTile) {
  if (!Pool || Pool->numThreads() <= 1) {
    Store.zero();
    return;
  }

  // Memory-order view of the storage: Planes x Rows rows of RowElems
  // contiguous doubles (for the folded layout a "row" is a run of fold
  // bricks sharing (Vy, Vz), which is contiguous by construction).
  long Planes = ScalarLayout ? PadZ : NVz;
  long Rows = ScalarLayout ? PadY : NVy;
  long RowElems = ScalarLayout ? PadX : NVx * F.elems();

  // Convert interior-coordinate tile extents into plane/row units so the
  // tile->thread mapping matches the sweep decomposition.
  long ZT = ZTile > 0 ? (ZTile + F.Z - 1) / F.Z : 1;
  long YT = YTile > 0 ? std::max<long>(1, (YTile + F.Y - 1) / F.Y) : Rows;
  ZT = std::min(ZT, Planes);
  YT = std::min(YT, Rows);
  long NumZTiles = (Planes + ZT - 1) / ZT;
  long NumYTiles = (Rows + YT - 1) / YT;

  double *Base = Store.data();
  Pool->parallelForTiles(
      NumZTiles, NumYTiles, [&](unsigned, long Zt, long Yt) {
        long P0 = Zt * ZT, P1 = std::min(P0 + ZT, Planes);
        long R0 = Yt * YT, R1 = std::min(R0 + YT, Rows);
        for (long P = P0; P < P1; ++P)
          std::memset(Base + (P * Rows + R0) * RowElems, 0,
                      static_cast<size_t>(R1 - R0) * RowElems *
                          sizeof(double));
      });
}

namespace {

/// Walks the linear indexes of consecutive x cells of one row without the
/// per-cell fold divisions of Grid::linearIndex(): inside a brick x moves
/// one lane, and leaving the brick jumps to the same lane row of the next
/// brick (for the scalar layout both steps are +1).
class RowCursor {
public:
  RowCursor(const Grid &G, long X, long Y, long Z)
      : I(G.linearIndex(X, Y, Z)), FX(G.fold().X),
        Ix((X + G.halo()) % G.fold().X),
        Jump(static_cast<size_t>(G.foldElems() - G.fold().X + 1)) {}

  /// Index of the current cell; then advances to the cell at x + 1.
  size_t next() {
    size_t Cur = I;
    if (++Ix == FX) {
      Ix = 0;
      I += Jump;
    } else {
      ++I;
    }
    return Cur;
  }

private:
  size_t I;
  long FX;
  long Ix;
  size_t Jump;
};

/// Calls Fn(X0, Y, Z, Len) for every x-run of halo cells in z, y, x order:
/// whole padded rows outside the interior's y/z range, and the two x-end
/// runs of width H for rows that cross the interior.
template <typename FnT>
void forEachHaloRun(const GridDims &D, long H, FnT Fn) {
  for (long Z = -H; Z < D.Nz + H; ++Z)
    for (long Y = -H; Y < D.Ny + H; ++Y) {
      if (Z < 0 || Z >= D.Nz || Y < 0 || Y >= D.Ny) {
        Fn(-H, Y, Z, D.Nx + 2 * H);
      } else if (H > 0) {
        Fn(-H, Y, Z, H);
        Fn(D.Nx, Y, Z, H);
      }
    }
}

/// Copies interior row (Y, Z) between two buffers laid out like \p G.
void copyInteriorRow(const Grid &G, const double *Src, double *Dst, long Y,
                     long Z) {
  G.forEachRowRun(0, G.dims().Nx, Y, Z, [&](size_t I, long, long Len) {
    std::memcpy(Dst + I, Src + I, static_cast<size_t>(Len) * sizeof(double));
  });
}

} // namespace

void Grid::fill(double Value) {
  for (size_t I = 0, E = Store.size(); I != E; ++I)
    Store[I] = Value;
}

void Grid::fillRandom(Rng &R) {
  fill(0.0);
  for (long Z = 0; Z < Dims.Nz; ++Z)
    for (long Y = 0; Y < Dims.Ny; ++Y) {
      RowCursor C(*this, 0, Y, Z);
      for (long X = 0; X < Dims.Nx; ++X)
        Store[C.next()] = R.nextDouble(-1.0, 1.0);
    }
}

void Grid::fillFunction(
    const std::function<double(long, long, long)> &Fn) {
  fill(0.0);
  for (long Z = 0; Z < Dims.Nz; ++Z)
    for (long Y = 0; Y < Dims.Ny; ++Y) {
      RowCursor C(*this, 0, Y, Z);
      for (long X = 0; X < Dims.Nx; ++X)
        Store[C.next()] = Fn(X, Y, Z);
    }
}

void Grid::fillHalo(double Value) {
  forEachHaloRun(Dims, Halo, [&](long X0, long Y, long Z, long Len) {
    RowCursor C(*this, X0, Y, Z);
    for (long X = 0; X < Len; ++X)
      Store[C.next()] = Value;
  });
}

void Grid::copyInteriorFrom(const Grid &Other, ThreadPool *Pool,
                            unsigned MaxWorkers) {
  assert(Dims == Other.Dims && "interior copy requires equal dims");
  // With equal dims, halo and fold every cell sits at the same linear
  // index in both grids.
  if (Halo != Other.Halo || !(F == Other.F)) {
    for (long Z = 0; Z < Dims.Nz; ++Z)
      for (long Y = 0; Y < Dims.Ny; ++Y) {
        RowCursor D(*this, 0, Y, Z), S(Other, 0, Y, Z);
        for (long X = 0; X < Dims.Nx; ++X)
          Store[D.next()] = Other.Store[S.next()];
      }
    return;
  }

  const double *Src = Other.data();
  double *Dst = data();
  unsigned Threads = Pool ? Pool->numThreads() : 1;
  if (MaxWorkers > 0)
    Threads = std::min(Threads, MaxWorkers);
  if (Threads <= 1) { // No task closure: the serial copy never allocates.
    for (long Z = 0; Z < Dims.Nz; ++Z)
      for (long Y = 0; Y < Dims.Ny; ++Y)
        copyInteriorRow(*this, Src, Dst, Y, Z);
    return;
  }
  // (z plane, y chunk) tiles: planes alone when there are enough of them,
  // so each thread copies the contiguous z range it sweeps and first
  // touched; thin grids also split y to keep every thread fed.
  long PerThread = 4 * static_cast<long>(Threads);
  long NumYTiles =
      Dims.Nz >= PerThread
          ? 1
          : std::min(Dims.Ny, (PerThread + Dims.Nz - 1) / Dims.Nz);
  long YT = (Dims.Ny + NumYTiles - 1) / NumYTiles;
  NumYTiles = (Dims.Ny + YT - 1) / YT;
  Pool->parallelForTiles(
      Dims.Nz, NumYTiles,
      [&](unsigned, long Z, long Yt) {
        for (long Y = Yt * YT, Y1 = std::min(Y + YT, Dims.Ny); Y < Y1; ++Y)
          copyInteriorRow(*this, Src, Dst, Y, Z);
      },
      Threads);
}

void Grid::applyPeriodicHalo() {
  auto Wrap = [](long V, long N) {
    V %= N;
    return V < 0 ? V + N : V;
  };
  forEachHaloRun(Dims, Halo, [&](long X0, long Y, long Z, long Len) {
    for (long X = X0; X < X0 + Len; ++X)
      at(X, Y, Z) =
          at(Wrap(X, Dims.Nx), Wrap(Y, Dims.Ny), Wrap(Z, Dims.Nz));
  });
}

void Grid::copyHaloFrom(const Grid &Other) {
  assert(Dims == Other.Dims && "halo copy requires equal dims");
  assert(Halo == Other.Halo && "halo copy requires equal halo width");
  forEachHaloRun(Dims, Halo, [&](long X0, long Y, long Z, long Len) {
    RowCursor D(*this, X0, Y, Z), S(Other, X0, Y, Z);
    for (long X = 0; X < Len; ++X)
      Store[D.next()] = Other.Store[S.next()];
  });
}

double Grid::maxAbsDiffInterior(const Grid &A, const Grid &B) {
  assert(A.Dims == B.Dims && "diff requires equal dims");
  if (A.Store.size() == 0 || B.Store.size() == 0)
    return 0.0; // Default-constructed grids own no storage.
  double Max = 0.0;
  for (long Z = 0; Z < A.Dims.Nz; ++Z)
    for (long Y = 0; Y < A.Dims.Ny; ++Y) {
      RowCursor CA(A, 0, Y, Z), CB(B, 0, Y, Z);
      for (long X = 0; X < A.Dims.Nx; ++X)
        Max = std::max(Max,
                       std::fabs(A.Store[CA.next()] - B.Store[CB.next()]));
    }
  return Max;
}

double Grid::interiorSum() const {
  if (Store.size() == 0)
    return 0.0;
  double Sum = 0.0;
  for (long Z = 0; Z < Dims.Nz; ++Z)
    for (long Y = 0; Y < Dims.Ny; ++Y) {
      RowCursor C(*this, 0, Y, Z);
      for (long X = 0; X < Dims.Nx; ++X)
        Sum += Store[C.next()];
    }
  return Sum;
}
