// Lagrangian evaluation and duality properties.
#include <gtest/gtest.h>

#include <cmath>

#include "core/lagrangian.hpp"
#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/problem.hpp"
#include "test_helpers.hpp"
#include "timing/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::Fig1Circuit;


struct Harness {
  Fig1Circuit f = Fig1Circuit::make();
  layout::CouplingSet coupling;
  core::Bounds bounds;
  core::MultiplierState multipliers;
  std::vector<double> mu;

  Harness() : coupling(f.make_coupling()), multipliers(f.circuit) {
    f.circuit.set_uniform_size(1.0);
    core::BoundFactors factors;
    factors.delay = 1.1;
    factors.power = 0.5;
    factors.noise = 0.5;
    bounds = core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), factors);
    multipliers.init_default(f.circuit);
    const double scale =
        timing::total_area(f.circuit, f.circuit.sizes()) / bounds.delay_s;
    for (double& l : multipliers.lambda) l *= scale;
    multipliers.compute_mu(f.circuit, mu);
  }

  double value(const std::vector<double>& x, double beta = 0.0,
               const core::NoiseMultipliers& gamma = 0.0) const {
    return core::lagrangian_value(f.circuit, coupling, x, mu,
                                  multipliers.sink_mu(f.circuit), beta, gamma,
                                  bounds);
  }
};

TEST(Lagrangian, ReducesToAreaPlusWeightedDelayAtZeroBetaGamma) {
  Harness s;
  const auto& x = s.f.circuit.sizes();
  // Compute the expected value by hand: Σαx + Σ μ_i D_i − μ_sink·A0.
  timing::LoadAnalysis loads;
  timing::compute_loads(s.f.circuit, s.coupling, x, loads);
  double expected = timing::total_area(s.f.circuit, x);
  for (netlist::NodeId v = 1; v < s.f.circuit.sink(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    expected += s.mu[i] * s.f.circuit.resistance(v, x[i]) * loads.cap_delay[i];
  }
  expected -= s.multipliers.sink_mu(s.f.circuit) * s.bounds.delay_s;
  EXPECT_NEAR(s.value(x), expected, 1e-9 * std::abs(expected));
}

TEST(Lagrangian, BetaTermIsLinearInBeta) {
  Harness s;
  const auto& x = s.f.circuit.sizes();
  const double cap_slack = timing::total_cap(s.f.circuit, x) - s.bounds.cap_f;
  const double l0 = s.value(x, 0.0);
  const double l1 = s.value(x, 1e9);
  EXPECT_NEAR(l1 - l0, 1e9 * cap_slack, 1e-6 * std::abs(l1 - l0) + 1e-12);
}

TEST(Lagrangian, GammaTermIsLinearInGamma) {
  Harness s;
  const auto& x = s.f.circuit.sizes();
  const double noise_slack = s.coupling.noise_linear(x) - s.bounds.noise_f;
  const double l0 = s.value(x);
  const double l1 = s.value(x, 0.0, 2e18);
  EXPECT_NEAR(l1 - l0, 2e18 * noise_slack, 1e-6 * std::abs(l1 - l0) + 1e-12);
}

TEST(Lagrangian, PerNetTermsMatchManualSum) {
  Harness s;
  s.bounds.per_net_noise_f.assign(
      static_cast<std::size_t>(s.f.circuit.num_nodes()), 0.0);
  std::vector<double> gamma_net(
      static_cast<std::size_t>(s.f.circuit.num_nodes()), 0.0);
  double expected_extra = 0.0;
  const auto& x = s.f.circuit.sizes();
  for (netlist::NodeId v = s.f.circuit.first_component();
       v < s.f.circuit.end_component(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (s.coupling.owned_pairs(v).empty()) continue;
    s.bounds.per_net_noise_f[i] = 0.5 * s.coupling.owned_noise_linear(v, x);
    gamma_net[i] = 1e17;
    expected_extra +=
        1e17 * (s.coupling.owned_noise_linear(v, x) - s.bounds.per_net_noise_f[i]);
  }
  const double l0 = s.value(x);
  const double l1 = s.value(x, 0.0, core::NoiseMultipliers(0.0, &gamma_net));
  EXPECT_NEAR(l1 - l0, expected_extra, 1e-6 * std::abs(expected_extra) + 1e-12);
}

TEST(Lagrangian, WeakDualityAgainstRandomFeasiblePoints) {
  // D(λ,β,γ) = min_x L ≤ area of any feasible x. Use the LRS minimizer as
  // min_x L, then compare with random points filtered for feasibility.
  Harness s;
  auto x_star = s.f.circuit.sizes();
  core::LrsWorkspace ws;
  core::LrsOptions options;
  options.tol = 1e-9;
  options.max_passes = 500;
  core::run_lrs(s.f.circuit, s.coupling, s.mu, 0.0, 0.0, options, x_star, ws);
  const double dual = s.value(x_star);

  util::Rng rng(31);
  int feasible_found = 0;
  for (int trial = 0; trial < 500 && feasible_found < 25; ++trial) {
    auto x = s.f.circuit.sizes();
    for (netlist::NodeId v = s.f.circuit.first_component();
         v < s.f.circuit.end_component(); ++v) {
      x[static_cast<std::size_t>(v)] =
          std::exp(rng.uniform(std::log(0.1), std::log(4.0)));
    }
    const auto m = timing::compute_metrics(s.f.circuit, s.coupling, x);
    if (m.delay_s > s.bounds.delay_s || m.cap_f > s.bounds.cap_f ||
        m.noise_f > s.bounds.noise_f) {
      continue;
    }
    ++feasible_found;
    EXPECT_LE(dual, m.area_um2 * (1.0 + 1e-9))
        << "weak duality violated at trial " << trial;
  }
  ASSERT_GT(feasible_found, 0) << "sampler found no feasible points";
}

TEST(Lagrangian, DualIncreasesWhenConstraintTermsAreActive) {
  // With a violated power bound, raising β raises L at fixed x.
  Harness s;
  auto x = s.f.circuit.sizes();  // unit sizes: cap > P0 = 0.5 cap_init? no —
  // cap(init) vs bound 0.5 cap(init): violated by 2x.
  EXPECT_GT(timing::total_cap(s.f.circuit, x), s.bounds.cap_f);
  EXPECT_LT(s.value(x, 0.0), s.value(x, 1e6));
}

}  // namespace
