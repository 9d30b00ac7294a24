//===- ode/IVP.cpp - Initial value problems --------------------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ode/IVP.h"

#include "ode/StageSweeps.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ys;

IVP::~IVP() = default;

int IVP::halo() const { return std::max(1, rhsStencil().radius()); }

void IVP::evalRHS(double T, const Grid &Y, Grid &Out) const {
  assert(hasStencilForm() && "generic evalRHS needs the stencil form; "
                             "non-stencil IVPs must override");
  KernelConfig Config;
  Config.VectorFold = Out.fold();
  KernelExecutor Exec(rhsStencil(), Config);
  ode_detail::evalRHS(*this, &Exec, T, Y, Out, nullptr);
}

//===----------------------------------------------------------------------===//
// Heat2D
//===----------------------------------------------------------------------===//

Heat2DIVP::Heat2DIVP(long N, double Alpha)
    : N(N), Alpha(Alpha), H(1.0 / static_cast<double>(N + 1)) {
  double Scale = Alpha / (H * H);
  Spec = StencilSpec::star2d(1, -4.0 * Scale, Scale);
}

void Heat2DIVP::initialCondition(Grid &Y) const {
  const double Pi = std::acos(-1.0);
  Y.fillFunction([&](long X, long Yc, long) {
    return std::sin(Pi * (X + 1) * H) * std::sin(Pi * (Yc + 1) * H);
  });
}

double Heat2DIVP::suggestedDt() const {
  // Forward-Euler stability bound for the 5-point Laplacian: h^2/(4 alpha).
  return 0.2 * H * H / Alpha;
}

void Heat2DIVP::exactSolution(double T, Grid &Y) const {
  // The discrete sine mode is an eigenvector of the discrete Laplacian
  // with eigenvalue -(4 alpha/h^2) sin^2(pi h / 2) per dimension.
  const double Pi = std::acos(-1.0);
  double S = std::sin(Pi * H / 2.0);
  double Lambda = -2.0 * (4.0 * Alpha / (H * H)) * S * S;
  double Decay = std::exp(Lambda * T);
  initialCondition(Y);
  const GridDims &D = Y.dims();
  for (long Z = 0; Z < D.Nz; ++Z)
    for (long Yc = 0; Yc < D.Ny; ++Yc)
      for (long X = 0; X < D.Nx; ++X)
        Y.at(X, Yc, Z) *= Decay;
}

//===----------------------------------------------------------------------===//
// Heat3D
//===----------------------------------------------------------------------===//

Heat3DIVP::Heat3DIVP(long N, double Alpha)
    : N(N), Alpha(Alpha), H(1.0 / static_cast<double>(N + 1)) {
  double Scale = Alpha / (H * H);
  Spec = StencilSpec::star3d(1, -6.0 * Scale, Scale);
}

void Heat3DIVP::initialCondition(Grid &Y) const {
  const double Pi = std::acos(-1.0);
  Y.fillFunction([&](long X, long Yc, long Z) {
    return std::sin(Pi * (X + 1) * H) * std::sin(Pi * (Yc + 1) * H) *
           std::sin(Pi * (Z + 1) * H);
  });
}

double Heat3DIVP::suggestedDt() const { return 0.15 * H * H / Alpha; }

void Heat3DIVP::exactSolution(double T, Grid &Y) const {
  const double Pi = std::acos(-1.0);
  double S = std::sin(Pi * H / 2.0);
  // Per dimension the discrete sine mode has eigenvalue
  // -(4 alpha / h^2) sin^2(pi h / 2).
  double Lambda = -3.0 * (4.0 * Alpha / (H * H)) * S * S;
  double Decay = std::exp(Lambda * T);
  initialCondition(Y);
  const GridDims &D = Y.dims();
  for (long Z = 0; Z < D.Nz; ++Z)
    for (long Yc = 0; Yc < D.Ny; ++Yc)
      for (long X = 0; X < D.Nx; ++X)
        Y.at(X, Yc, Z) *= Decay;
}

//===----------------------------------------------------------------------===//
// ReactionDiffusion3D
//===----------------------------------------------------------------------===//

ReactionDiffusion3DIVP::ReactionDiffusion3DIVP(long N, double Diffusion)
    : N(N), Diffusion(Diffusion), H(1.0 / static_cast<double>(N + 1)) {
  double Scale = Diffusion / (H * H);
  Spec = StencilSpec::star3d(1, -6.0 * Scale, Scale);
  Spec.ExtraFlopsPerLup = 3; // u - u^3: two muls, one sub.
}

void ReactionDiffusion3DIVP::initialCondition(Grid &Y) const {
  Rng R(7);
  Y.fillRandom(R);
  // Scale into the bistable wells' basin.
  const GridDims &D = Y.dims();
  for (long Z = 0; Z < D.Nz; ++Z)
    for (long Yc = 0; Yc < D.Ny; ++Yc)
      for (long X = 0; X < D.Nx; ++X)
        Y.at(X, Yc, Z) *= 0.5;
}

double ReactionDiffusion3DIVP::suggestedDt() const {
  return 0.15 * H * H / Diffusion;
}

//===----------------------------------------------------------------------===//
// Advection3D
//===----------------------------------------------------------------------===//

Advection3DIVP::Advection3DIVP(long N, double Vx, double Vy, double Vz)
    : N(N), Vx(Vx), Vy(Vy), Vz(Vz), H(1.0 / static_cast<double>(N + 1)) {
  // First-order upwind for positive velocities:
  //   u' = -v * (u(x) - u(x-1)) / h  per dimension.
  assert(Vx >= 0 && Vy >= 0 && Vz >= 0 && "upwind assumes v >= 0");
  std::vector<StencilPoint> Pts;
  double Center = -(Vx + Vy + Vz) / H;
  Pts.push_back({0, 0, 0, Center, 0});
  if (Vx > 0)
    Pts.push_back({-1, 0, 0, Vx / H, 0});
  if (Vy > 0)
    Pts.push_back({0, -1, 0, Vy / H, 0});
  if (Vz > 0)
    Pts.push_back({0, 0, -1, Vz / H, 0});
  Spec = StencilSpec("advect3d-upwind", std::move(Pts));
}

void Advection3DIVP::initialCondition(Grid &Y) const {
  // A smooth bump in the lower corner.
  Y.fillFunction([&](long X, long Yc, long Z) {
    double Dx = (X + 1) * H - 0.3;
    double Dy = (Yc + 1) * H - 0.3;
    double Dz = (Z + 1) * H - 0.3;
    return std::exp(-40.0 * (Dx * Dx + Dy * Dy + Dz * Dz));
  });
}

double Advection3DIVP::suggestedDt() const {
  double VMax = std::max({Vx, Vy, Vz, 1e-12});
  return 0.5 * H / VMax; // CFL.
}

//===----------------------------------------------------------------------===//
// InverterChain
//===----------------------------------------------------------------------===//

InverterChainIVP::InverterChainIVP(long N) : N(N) {
  // Structural proxy for the performance model: bandwidth-1 chain with a
  // handful of pointwise flops for the nonlinearity.
  ProxySpec = StencilSpec(
      "inverter-proxy",
      {{0, 0, 0, 1.0, 0}, {-1, 0, 0, 1.0, 0}});
  ProxySpec.ExtraFlopsPerLup = 6;
}

double InverterChainIVP::uIn(double T) const {
  // A smooth pulse driving the first inverter.
  double Phase = T - std::floor(T);
  return Phase < 0.5 ? 5.0 : 0.0;
}

void InverterChainIVP::initialCondition(Grid &Y) const {
  for (long X = 0; X < N; ++X)
    Y.at(X, 0, 0) = (X % 2 == 0) ? 0.0 : UOp;
  Y.fillHalo(0.0);
}

double InverterChainIVP::suggestedDt() const { return 0.05 * Tau; }

void InverterChainIVP::evalRHS(double T, const Grid &Y, Grid &Out) const {
  auto G = [&](double V) { return Beta * V * V / (1.0 + V * V); };
  Out.at(0, 0, 0) = (uIn(T) - Y.at(0, 0, 0)) / Tau;
  for (long X = 1; X < N; ++X)
    Out.at(X, 0, 0) = (UOp - Y.at(X, 0, 0) - G(Y.at(X - 1, 0, 0))) / Tau;
}

//===----------------------------------------------------------------------===//
// Burgers3D
//===----------------------------------------------------------------------===//

Burgers3DIVP::Burgers3DIVP(long N, double Viscosity)
    : N(N), Nu(Viscosity), H(1.0 / static_cast<double>(N + 1)) {
  double Scale = Nu / (H * H);
  ProxySpec = StencilSpec::star3d(1, -6.0 * Scale, Scale);
  // Advection adds ~3 diffs + 3 muls + adds per LUP.
  ProxySpec.ExtraFlopsPerLup = 8;
}

void Burgers3DIVP::initialCondition(Grid &Y) const {
  const double Pi = std::acos(-1.0);
  Y.fillFunction([&](long X, long Yc, long Z) {
    return std::sin(Pi * (X + 1) * H) * std::sin(Pi * (Yc + 1) * H) *
           std::sin(Pi * (Z + 1) * H);
  });
}

double Burgers3DIVP::suggestedDt() const {
  // Diffusion bound dominates for the default viscosity/size.
  return 0.15 * H * H / std::max(Nu, 1e-12);
}

void Burgers3DIVP::evalRHS(double T, const Grid &Y, Grid &Out) const {
  (void)T;
  double InvH2 = Nu / (H * H);
  double Inv2H = 1.0 / (2.0 * H);
  const GridDims &D = Y.dims();
  for (long Z = 0; Z < D.Nz; ++Z)
    for (long Yc = 0; Yc < D.Ny; ++Yc)
      for (long X = 0; X < D.Nx; ++X) {
        double U = Y.at(X, Yc, Z);
        double Lap = Y.at(X + 1, Yc, Z) + Y.at(X - 1, Yc, Z) +
                     Y.at(X, Yc + 1, Z) + Y.at(X, Yc - 1, Z) +
                     Y.at(X, Yc, Z + 1) + Y.at(X, Yc, Z - 1) - 6.0 * U;
        double Grad = (Y.at(X + 1, Yc, Z) - Y.at(X - 1, Yc, Z)) +
                      (Y.at(X, Yc + 1, Z) - Y.at(X, Yc - 1, Z)) +
                      (Y.at(X, Yc, Z + 1) - Y.at(X, Yc, Z - 1));
        Out.at(X, Yc, Z) = InvH2 * Lap - U * Inv2H * Grad;
      }
}

std::vector<std::unique_ptr<IVP>> ys::allBuiltinIVPs(long N3d, long N1d) {
  std::vector<std::unique_ptr<IVP>> IVPs;
  IVPs.push_back(std::make_unique<Heat2DIVP>(N3d * 4));
  IVPs.push_back(std::make_unique<Heat3DIVP>(N3d));
  IVPs.push_back(std::make_unique<ReactionDiffusion3DIVP>(N3d));
  IVPs.push_back(std::make_unique<Advection3DIVP>(N3d));
  IVPs.push_back(std::make_unique<Burgers3DIVP>(N3d));
  IVPs.push_back(std::make_unique<InverterChainIVP>(N1d));
  return IVPs;
}
