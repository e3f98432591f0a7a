// TILOS-style greedy baseline: meets reachable bounds, loses to LR on area.
#include <gtest/gtest.h>

#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "core/tilos.hpp"
#include "test_helpers.hpp"
#include "timing/metrics.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;


TEST(Tilos, TrivialBoundNeedsNoMoves) {
  auto c = ChainCircuit::make();
  const auto coupling = test_support::no_coupling(c.circuit);
  const auto result = core::run_tilos(c.circuit, coupling, 1.0 /*1 s*/);
  EXPECT_TRUE(result.met_bound);
  EXPECT_EQ(result.moves, 0);
  for (netlist::NodeId v = c.circuit.first_component(); v < c.circuit.end_component();
       ++v) {
    EXPECT_DOUBLE_EQ(result.sizes[static_cast<std::size_t>(v)],
                     c.circuit.lower_bound(v));
  }
}

TEST(Tilos, MeetsAReachableBound) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  // Bound: delay at uniform size 1 (reachable: min sizes are slower).
  f.circuit.set_uniform_size(1.0);
  const double bound =
      timing::compute_metrics(f.circuit, coupling, f.circuit.sizes()).delay_s;
  const auto result = core::run_tilos(f.circuit, coupling, bound);
  EXPECT_TRUE(result.met_bound);
  EXPECT_GT(result.moves, 0);
  EXPECT_LE(result.delay_s, bound);
}

TEST(Tilos, SizesStayInBox) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  f.circuit.set_uniform_size(1.0);
  const double bound =
      0.9 *
      timing::compute_metrics(f.circuit, coupling, f.circuit.sizes()).delay_s;
  const auto result = core::run_tilos(f.circuit, coupling, bound);
  for (netlist::NodeId v = f.circuit.first_component(); v < f.circuit.end_component();
       ++v) {
    EXPECT_GE(result.sizes[static_cast<std::size_t>(v)], f.circuit.lower_bound(v));
    EXPECT_LE(result.sizes[static_cast<std::size_t>(v)], f.circuit.upper_bound(v));
  }
}

TEST(Tilos, StopsGracefullyOnUnreachableBound) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  const auto result = core::run_tilos(f.circuit, coupling, 1e-15 /*1 fs*/);
  EXPECT_FALSE(result.met_bound);
  EXPECT_GT(result.delay_s, 1e-15);
}

TEST(Tilos, LrMatchesOrBeatsTilosArea) {
  // At the same delay bound (power/noise relaxed), the LR optimum must not
  // be worse than the greedy heuristic (allowing the 1% solver tolerance).
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  core::BoundFactors factors;
  factors.delay = 0.95;
  factors.power = 100.0;
  factors.noise = 100.0;
  const auto bounds =
      core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), factors);

  const auto tilos = core::run_tilos(f.circuit, coupling, bounds.delay_s);
  ASSERT_TRUE(tilos.met_bound);
  const auto lr = core::run_ogws(f.circuit, coupling, bounds);
  const auto lr_metrics = timing::compute_metrics(f.circuit, coupling, lr.sizes);
  EXPECT_LE(lr_metrics.delay_s, bounds.delay_s * 1.02);
  EXPECT_LE(lr_metrics.area_um2, tilos.area_um2 * 1.02);
}

TEST(Tilos, DeterministicAcrossRuns) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  f.circuit.set_uniform_size(1.0);
  const double bound =
      timing::compute_metrics(f.circuit, coupling, f.circuit.sizes()).delay_s;
  const auto a = core::run_tilos(f.circuit, coupling, bound);
  const auto b = core::run_tilos(f.circuit, coupling, bound);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.sizes, b.sizes);
}

}  // namespace
