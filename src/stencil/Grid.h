//===- stencil/Grid.h - 3-D grid with halo and folded layout -----*- C++ -*-===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 3-D double-precision grid with halo cells and a selectable in-memory
/// layout.  The layout is YASK's "vector folding": the grid is stored as an
/// array of small (Fx x Fy x Fz) bricks, each contiguous in memory, so a
/// SIMD register holds a multi-dimensional sub-block of the grid instead of
/// a 1-D run.  Fold {1,1,1} degenerates to the usual row-major layout with
/// unit stride in x.
///
/// Interior coordinates run over [0, Nx) x [0, Ny) x [0, Nz); the halo of
/// width H extends each dimension by H on both sides, so any coordinate in
/// [-H, N+H) is addressable.
///
//===----------------------------------------------------------------------===//

#ifndef YS_STENCIL_GRID_H
#define YS_STENCIL_GRID_H

#include "support/AlignedBuffer.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <string>

namespace ys {

class ThreadPool;

/// A SIMD vector fold shape: how many grid points a SIMD vector covers in
/// each dimension.  The product is the vector length in elements.
struct Fold {
  int X = 1;
  int Y = 1;
  int Z = 1;

  int elems() const { return X * Y * Z; }
  bool isScalar() const { return X == 1 && Y == 1 && Z == 1; }
  bool operator==(const Fold &O) const {
    return X == O.X && Y == O.Y && Z == O.Z;
  }
  std::string str() const;
};

/// Interior sizes of a grid.
struct GridDims {
  long Nx = 1;
  long Ny = 1;
  long Nz = 1;

  long lups() const { return Nx * Ny * Nz; }
  bool operator==(const GridDims &O) const {
    return Nx == O.Nx && Ny == O.Ny && Nz == O.Nz;
  }
  std::string str() const;
};

/// 3-D grid of doubles with halo and folded storage.
class Grid {
public:
  Grid() = default;

  /// Creates a grid with interior \p Dims, halo width \p Halo, and storage
  /// fold \p F.  Contents are zero-initialized.
  Grid(GridDims Dims, int Halo, Fold F = Fold());

  /// Like the plain constructor, but performs the initial zeroing in
  /// parallel on \p FirstTouchPool via firstTouch(), so pages are faulted
  /// in (first-touched) by the threads that will later sweep them — on
  /// NUMA machines this places each page on the worker's local node.
  /// \p ZTile / \p YTile should match the sweep's cache-block sizes
  /// (0 = one z plane / full y rows).
  Grid(GridDims Dims, int Halo, Fold F, ThreadPool *FirstTouchPool,
       long ZTile = 0, long YTile = 0);

  const GridDims &dims() const { return Dims; }
  int halo() const { return Halo; }
  const Fold &fold() const { return F; }

  /// Padded extent (interior + 2*halo, rounded up to the fold) per dim.
  long padX() const { return PadX; }
  long padY() const { return PadY; }
  long padZ() const { return PadZ; }

  /// Total allocated elements.
  size_t allocElems() const { return Store.size(); }

  /// Raw storage pointer (layout per linearIndex()).
  double *data() { return Store.data(); }
  const double *data() const { return Store.data(); }

  /// Linear index of interior-coordinate (X, Y, Z); coordinates may reach
  /// into the halo: X in [-Halo, Nx + Halo), etc.
  size_t linearIndex(long X, long Y, long Z) const {
    long Gx = X + Halo, Gy = Y + Halo, Gz = Z + Halo;
    assert(Gx >= 0 && Gx < PadX && "x out of padded range");
    assert(Gy >= 0 && Gy < PadY && "y out of padded range");
    assert(Gz >= 0 && Gz < PadZ && "z out of padded range");
    if (ScalarLayout)
      return static_cast<size_t>((Gz * PadY + Gy) * PadX + Gx);
    long Vx = Gx / F.X, Ix = Gx % F.X;
    long Vy = Gy / F.Y, Iy = Gy % F.Y;
    long Vz = Gz / F.Z, Iz = Gz % F.Z;
    long VecIdx = (Vz * NVy + Vy) * NVx + Vx;
    long InFold = (Iz * F.Y + Iy) * F.X + Ix;
    return static_cast<size_t>(VecIdx * F.elems() + InFold);
  }

  /// Element access by interior coordinates (halo reachable).
  double &at(long X, long Y, long Z) { return Store[linearIndex(X, Y, Z)]; }
  double at(long X, long Y, long Z) const {
    return Store[linearIndex(X, Y, Z)];
  }

  /// For the scalar layout only: the constant linear offset of the
  /// neighbor at (Dx, Dy, Dz) relative to any interior point.
  long scalarNeighborOffset(int Dx, int Dy, int Dz) const {
    assert(ScalarLayout && "neighbor offsets are layout-constant only for "
                           "the scalar layout");
    return (static_cast<long>(Dz) * PadY + Dy) * PadX + Dx;
  }

  /// True if stored with the degenerate {1,1,1} fold.
  bool hasScalarLayout() const { return ScalarLayout; }

  /// \name Fold-linear indexing.
  ///
  /// The storage is an array of NVx*NVy*NVz fold blocks of foldElems()
  /// contiguous doubles each; block (Vx, Vy, Vz) covers padded coordinates
  /// [Vx*F.X, (Vx+1)*F.X) x ... and starts at blockBaseIndex().  Lanes
  /// enumerate a block x-fastest: Lane = (Iz*F.Y + Iy)*F.X + Ix.  The
  /// invariant tying these helpers to linearIndex() is
  ///
  ///   blockBaseIndex(V) + foldNeighborOffset(L, Dx, Dy, Dz)
  ///     == linearIndex of the (Dx,Dy,Dz)-neighbor of block V's lane L
  ///
  /// for every block V — the offset depends only on (lane, delta), which
  /// is what lets a kernel plan precompute one offset table valid across
  /// the whole grid.  The scalar layout degenerates cleanly (one lane,
  /// blocks = cells), so these are valid for every fold.
  /// @{

  /// Doubles per fold block (= fold().elems()).
  int foldElems() const { return F.elems(); }

  /// Padded extent in fold-block units per dimension.
  long numVecX() const { return NVx; }
  long numVecY() const { return NVy; }
  long numVecZ() const { return NVz; }

  /// Linear index of lane 0 of fold block (Vx, Vy, Vz).
  size_t blockBaseIndex(long Vx, long Vy, long Vz) const {
    assert(Vx >= 0 && Vx < NVx && "x block out of range");
    assert(Vy >= 0 && Vy < NVy && "y block out of range");
    assert(Vz >= 0 && Vz < NVz && "z block out of range");
    return static_cast<size_t>((Vz * NVy + Vy) * NVx + Vx) * F.elems();
  }

  /// In-fold (x, y, z) coordinates of lane \p Lane.
  void laneCoords(int Lane, int &Ix, int &Iy, int &Iz) const {
    assert(Lane >= 0 && Lane < F.elems() && "lane out of range");
    Ix = Lane % F.X;
    Iy = (Lane / F.X) % F.Y;
    Iz = Lane / (F.X * F.Y);
  }

  /// Fold-linear offset, relative to a block's base index, of the
  /// (Dx, Dy, Dz)-neighbor of lane \p Lane.  Constant across blocks; may
  /// be negative.  Only valid when the neighbor stays inside the padded
  /// extent, which a halo >= |delta| guarantees for interior blocks.
  long foldNeighborOffset(int Lane, int Dx, int Dy, int Dz) const {
    int Ix, Iy, Iz;
    laneCoords(Lane, Ix, Iy, Iz);
    // Split lane + delta into (block delta, in-fold coordinate) with a
    // floor division so negative deltas land in the preceding block.
    auto Split = [](long A, int Fd, long &Block, long &In) {
      Block = A >= 0 ? A / Fd : -((-A + Fd - 1) / Fd);
      In = A - Block * Fd;
    };
    long Bx, NIx, By, NIy, Bz, NIz;
    Split(Ix + Dx, F.X, Bx, NIx);
    Split(Iy + Dy, F.Y, By, NIy);
    Split(Iz + Dz, F.Z, Bz, NIz);
    return ((Bz * NVy + By) * NVx + Bx) * F.elems() +
           (NIz * F.Y + NIy) * F.X + NIx;
  }

  /// Calls Fn(Index, X, Len) for each contiguous storage run of the cells
  /// x in [X0, X0 + Len) of row (Y, Z), in x order: cells X .. X+Len-1 sit
  /// at linear indexes Index .. Index+Len-1.  With F.Y == F.Z == 1
  /// (the scalar layout included) consecutive bricks hold consecutive x,
  /// so the range is one run; otherwise each brick holds an F.X-lane run
  /// of it and the next run starts one brick (minus the lane offset)
  /// later.  Grids sharing dims, halo and fold share these runs.
  template <typename FnT>
  void forEachRowRun(long X0, long Len, long Y, long Z, FnT &&Fn) const {
    size_t I = linearIndex(X0, Y, Z);
    if (F.Y == 1 && F.Z == 1) {
      Fn(I, X0, Len);
      return;
    }
    long Ix = (X0 + Halo) % F.X;
    for (long X = X0, XEnd = X0 + Len; X < XEnd;) {
      long Run = std::min<long>(F.X - Ix, XEnd - X);
      Fn(I, X, Run);
      X += Run;
      I += static_cast<size_t>(F.elems() - Ix);
      Ix = 0;
    }
  }

  /// @}

  /// \name Bulk initialization and comparison helpers.
  /// @{

  /// Sets every allocated element (incl. halo) to \p Value.
  void fill(double Value);

  /// Zeroes all storage in parallel over (z,y) tiles with the same
  /// tile->thread mapping the kernel executor uses for sweeps, so the
  /// first touch of every page happens on the thread that will process
  /// that region.  \p ZTile / \p YTile are interior-coordinate tile
  /// extents (0 = one z plane at a time / full y rows).  Falls back to a
  /// serial zero when \p Pool is null or single-threaded.
  void firstTouch(ThreadPool *Pool, long ZTile = 0, long YTile = 0);

  /// Fills the interior with deterministic pseudo-random values in
  /// [-1, 1); the halo is set to zero.
  void fillRandom(Rng &R);

  /// Fills the interior from \p Fn(x, y, z); the halo is set to zero.
  void fillFunction(const std::function<double(long, long, long)> &Fn);

  /// Sets all halo elements to \p Value, leaving the interior untouched.
  void fillHalo(double Value);

  /// Fills the halo with periodically wrapped interior values
  /// (torus topology), so a subsequent sweep sees periodic boundary
  /// conditions.  Call before every sweep that needs them.
  void applyPeriodicHalo();

  /// Copies the interior (not the halo) from \p Other, which must have the
  /// same dims but may use a different fold/halo.  When both grids share
  /// one layout (dims, halo and fold) the copy moves contiguous x-runs
  /// with memcpy: whole interior rows when F.Y == F.Z == 1, otherwise the
  /// F.X-lane runs of each brick.  That path splits the rows over \p Pool
  /// (at most \p MaxWorkers threads, 0 = all) when one is given; other
  /// layouts copy element by element on the calling thread.
  void copyInteriorFrom(const Grid &Other, ThreadPool *Pool = nullptr,
                        unsigned MaxWorkers = 0);

  /// Copies all halo cells from \p Other (same dims and halo width
  /// required); interior untouched.  Used to propagate boundary values
  /// into work buffers.
  void copyHaloFrom(const Grid &Other);

  /// Maximum |a-b| over the interiors of two same-dims grids.
  static double maxAbsDiffInterior(const Grid &A, const Grid &B);

  /// Sum over the interior.
  double interiorSum() const;

  /// @}

  /// Memory footprint of the interior plus halo in bytes.
  unsigned long long footprintBytes() const {
    return static_cast<unsigned long long>(Store.size()) * sizeof(double);
  }

private:
  GridDims Dims;
  int Halo = 0;
  Fold F;
  bool ScalarLayout = true;
  long PadX = 0, PadY = 0, PadZ = 0;
  long NVx = 0, NVy = 0, NVz = 0; ///< Padded extent in fold units.
  AlignedBuffer<double> Store;
};

} // namespace ys

#endif // YS_STENCIL_GRID_H
