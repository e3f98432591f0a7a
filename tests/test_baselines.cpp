// Baseline sizers: uniform scaling, min sizes, delay-only LR ([3]).
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/problem.hpp"
#include "test_helpers.hpp"
#include "timing/metrics.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::Fig1Circuit;


TEST(Baselines, MinSizesAreLowerBounds) {
  const auto f = Fig1Circuit::make();
  const auto x = core::min_sizes(f.circuit);
  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(v)], f.circuit.lower_bound(v));
  }
  EXPECT_DOUBLE_EQ(x[0], 0.0);  // source carries no size
}

TEST(Baselines, UniformSizesClamp) {
  const auto f = Fig1Circuit::make();
  const auto x = core::uniform_sizes(f.circuit, 50.0);
  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(v)], f.circuit.upper_bound(v));
  }
}

TEST(Baselines, UniformScalingMeetsReachableDelayBound) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  // Bound: the delay at uniform size 2 (reachable by construction).
  const auto x2 = core::uniform_sizes(f.circuit, 2.0);
  const double bound = timing::compute_metrics(f.circuit, coupling, x2).delay_s;
  const auto x = core::size_uniform_for_delay(f.circuit, coupling, bound);
  const auto m = timing::compute_metrics(f.circuit, coupling, x);
  EXPECT_LE(m.delay_s, bound * 1.0001);
  // And it should not be grossly oversized: area at most that of size 2.
  EXPECT_LE(m.area_um2,
            timing::compute_metrics(f.circuit, coupling, x2).area_um2 * 1.001);
}

TEST(Baselines, UniformScalingReturnsMinWhenBoundIsLoose) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  const auto x = core::size_uniform_for_delay(f.circuit, coupling, 1.0 /*1s*/);
  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(v)], f.circuit.tech().min_size);
  }
}

TEST(Baselines, DelayOnlyLrIgnoresNoiseBound) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto bounds =
      core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), core::BoundFactors{});
  core::OgwsOptions options;
  const auto constrained = core::run_ogws(f.circuit, coupling, bounds, options);
  const auto delay_only = core::run_delay_only_lr(f.circuit, coupling, bounds, options);

  const auto mc =
      timing::compute_metrics(f.circuit, coupling, constrained.sizes);
  const auto md =
      timing::compute_metrics(f.circuit, coupling, delay_only.sizes);
  // The noise-constrained run obeys X0; the delay-only baseline does not
  // have to (and its area can only be <= within tolerance).
  EXPECT_LE(mc.noise_f, bounds.noise_f * 1.02);
  EXPECT_LE(md.area_um2, mc.area_um2 * 1.05);
}

TEST(Baselines, UniformScalingCostsMoreAreaThanLr) {
  // The LR sizer beats the single-knob baseline at equal delay bound.
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  core::BoundFactors factors;
  factors.delay = 0.9;
  factors.power = 10.0;  // keep only the delay bound active
  factors.noise = 10.0;
  const auto bounds =
      core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), factors);
  const auto lr = core::run_ogws(f.circuit, coupling, bounds);
  const auto uniform =
      core::size_uniform_for_delay(f.circuit, coupling, bounds.delay_s);
  const auto m_lr = timing::compute_metrics(f.circuit, coupling, lr.sizes);
  const auto m_un = timing::compute_metrics(f.circuit, coupling, uniform);
  EXPECT_LE(m_lr.delay_s, bounds.delay_s * 1.02);
  EXPECT_LE(m_lr.area_um2, m_un.area_um2 * 1.001);
}

}  // namespace
