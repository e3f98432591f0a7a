// LRS subroutine: Theorem 5 stationarity, global optimality of the
// subproblem, and behavioral properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/lagrangian.hpp"
#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "test_helpers.hpp"
#include "timing/loads.hpp"
#include "timing/upstream.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;

core::Bounds loose_bounds() {
  core::Bounds b;
  b.delay_s = 1.0;   // constants only shift L; any positive value works here
  b.cap_f = 1.0;
  b.noise_f = 1.0;
  return b;
}

/// μ vector from a KCL-consistent multiplier state scaled to `scale`.
std::vector<double> make_mu(const netlist::Circuit& circuit, double scale) {
  core::MultiplierState m(circuit);
  m.init_default(circuit);
  std::vector<double> mu;
  m.compute_mu(circuit, mu);
  for (double& v : mu) v *= scale;
  return mu;
}

TEST(Lrs, ZeroMuCollapsesToLowerBounds) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  std::vector<double> mu(static_cast<std::size_t>(f.circuit.num_nodes()), 0.0);
  auto x = f.circuit.sizes();
  core::LrsWorkspace ws;
  core::run_lrs(f.circuit, coupling, mu, 0.0, 0.0, core::LrsOptions{}, x, ws);
  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(v)], f.circuit.lower_bound(v));
  }
}

TEST(Lrs, ConvergesToFixpoint) {
  // Figure 8's S5 rule: the sweep stops once a whole pass moves every size
  // by less than tol.
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  const auto mu = make_mu(f.circuit, 1e13);
  auto x = f.circuit.sizes();
  core::LrsWorkspace ws;
  core::LrsOptions options;
  const auto stats = core::run_lrs(f.circuit, coupling, mu, 0.0, 0.0, options, x, ws);
  EXPECT_LT(stats.max_rel_change, options.tol);
  EXPECT_LT(stats.passes, options.max_passes);
}

TEST(Lrs, FixpointSatisfiesTheorem5) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  const auto mu = make_mu(f.circuit, 1e13);
  auto x = f.circuit.sizes();
  core::LrsWorkspace ws;
  core::LrsOptions options;
  options.tol = 1e-9;
  options.max_passes = 500;
  core::run_lrs(f.circuit, coupling, mu, 1e10, 1e10, options, x, ws);

  timing::LoadAnalysis loads;
  timing::compute_loads(f.circuit, coupling, x, loads);
  std::vector<double> r_up;
  timing::compute_weighted_upstream(f.circuit, x, mu, r_up);
  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    const double opt = core::optimal_resize(f.circuit, coupling, mu, 1e10, 1e10, x,
                                            loads, r_up, v);
    const double target =
        std::clamp(opt, f.circuit.lower_bound(v), f.circuit.upper_bound(v));
    EXPECT_NEAR(x[static_cast<std::size_t>(v)], target,
                1e-5 * target)
        << "node " << v;
  }
}

TEST(Lrs, InteriorStationarityAgainstNumericGradient) {
  // Without coupling, Theorem 5 is the exact stationarity condition of L:
  // the numeric gradient of lagrangian_value at the LRS solution must
  // vanish for every interior component.
  auto f = Fig1Circuit::make();
  const auto coupling = test_support::no_coupling(f.circuit);
  const auto mu = make_mu(f.circuit, 1e13);
  const auto bounds = loose_bounds();

  auto x = f.circuit.sizes();
  core::LrsWorkspace ws;
  core::LrsOptions options;
  options.tol = 1e-10;
  options.max_passes = 1000;
  core::run_lrs(f.circuit, coupling, mu, 1e9, 0.0, options, x, ws);

  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    const auto i = static_cast<std::size_t>(v);
    const double lo = f.circuit.lower_bound(v);
    const double hi = f.circuit.upper_bound(v);
    if (x[i] < lo * 1.001 || x[i] > hi * 0.999) continue;  // boundary: skip
    const double h = 1e-5 * x[i];
    auto xp = x;
    xp[i] += h;
    auto xm = x;
    xm[i] -= h;
    const double lp =
        core::lagrangian_value(f.circuit, coupling, xp, mu, 1.0, 1e9, 0.0, bounds);
    const double lm =
        core::lagrangian_value(f.circuit, coupling, xm, mu, 1.0, 1e9, 0.0, bounds);
    const double l0 =
        core::lagrangian_value(f.circuit, coupling, x, mu, 1.0, 1e9, 0.0, bounds);
    EXPECT_LT(std::abs(lp - lm) / (2.0 * h), 1e-4 * std::abs(l0) / x[i])
        << "gradient not ~0 at node " << v;
  }
}

TEST(Lrs, GlobalMinimumOfSubproblem) {
  // The subproblem is convex: no random point may beat the LRS solution.
  auto f = Fig1Circuit::make();
  const auto coupling = test_support::no_coupling(f.circuit);
  const auto mu = make_mu(f.circuit, 1e13);
  const auto bounds = loose_bounds();

  auto x = f.circuit.sizes();
  core::LrsWorkspace ws;
  core::LrsOptions options;
  options.tol = 1e-9;
  options.max_passes = 500;
  core::run_lrs(f.circuit, coupling, mu, 1e9, 0.0, options, x, ws);
  const double l_opt =
      core::lagrangian_value(f.circuit, coupling, x, mu, 1.0, 1e9, 0.0, bounds);

  util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    auto xr = x;
    for (netlist::NodeId v = f.circuit.first_component();
         v < f.circuit.end_component(); ++v) {
      xr[static_cast<std::size_t>(v)] =
          std::exp(rng.uniform(std::log(0.1), std::log(10.0)));
    }
    const double lr =
        core::lagrangian_value(f.circuit, coupling, xr, mu, 1.0, 1e9, 0.0, bounds);
    EXPECT_GE(lr, l_opt - 1e-9 * std::abs(l_opt));
  }
}

TEST(Lrs, WarmStartReachesSameFixpoint) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  const auto mu = make_mu(f.circuit, 1e13);
  core::LrsWorkspace ws;

  core::LrsOptions cold;
  cold.tol = 1e-9;
  cold.max_passes = 500;
  auto x_cold = f.circuit.sizes();
  core::run_lrs(f.circuit, coupling, mu, 0.0, 0.0, cold, x_cold, ws);

  // Perturb, then re-solve on the same workspace: a later call resumes from
  // the incoming x.
  auto x_warm = x_cold;
  for (auto& v : x_warm) v *= 1.5;
  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    auto& xv = x_warm[static_cast<std::size_t>(v)];
    xv = std::clamp(xv, f.circuit.lower_bound(v), f.circuit.upper_bound(v));
  }
  core::run_lrs(f.circuit, coupling, mu, 0.0, 0.0, cold, x_warm, ws);

  for (std::size_t i = 0; i < x_cold.size(); ++i) {
    EXPECT_NEAR(x_warm[i], x_cold[i], 1e-4 * std::max(1.0, x_cold[i]));
  }
}

TEST(Lrs, HigherMuGrowsSizes) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  core::LrsWorkspace ws;

  auto x_small = f.circuit.sizes();
  core::run_lrs(f.circuit, coupling, make_mu(f.circuit, 1e12), 0.0, 0.0,
                core::LrsOptions{}, x_small, ws);
  auto x_large = f.circuit.sizes();
  core::run_lrs(f.circuit, coupling, make_mu(f.circuit, 1e14), 0.0, 0.0,
                core::LrsOptions{}, x_large, ws);

  double sum_small = 0.0;
  double sum_large = 0.0;
  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    sum_small += x_small[static_cast<std::size_t>(v)];
    sum_large += x_large[static_cast<std::size_t>(v)];
  }
  EXPECT_GT(sum_large, sum_small);
}

TEST(Lrs, GammaShrinksCoupledWires) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  const auto mu = make_mu(f.circuit, 1e13);
  core::LrsWorkspace ws;

  auto x_free = f.circuit.sizes();
  core::run_lrs(f.circuit, coupling, mu, 0.0, 0.0, core::LrsOptions{}, x_free, ws);
  auto x_taxed = f.circuit.sizes();
  core::run_lrs(f.circuit, coupling, mu, 0.0, 1e18, core::LrsOptions{}, x_taxed, ws);

  double wires_free = 0.0;
  double wires_taxed = 0.0;
  for (netlist::NodeId w : f.wires) {
    wires_free += x_free[static_cast<std::size_t>(w)];
    wires_taxed += x_taxed[static_cast<std::size_t>(w)];
  }
  EXPECT_LT(wires_taxed, wires_free);
}

}  // namespace
