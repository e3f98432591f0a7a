// Coupling capacitance model: Eq. 2, Eq. 3, Theorem 1, CouplingSet sums.
#include <gtest/gtest.h>

#include <cmath>

#include "layout/coupling.hpp"
#include "layout/neighbors.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lrsizer;

layout::CouplingGeometry geom(double overlap = 200.0, double pitch = 4.0,
                              double fringe = 0.25e-15) {
  layout::CouplingGeometry g;
  g.overlap_um = overlap;
  g.pitch_um = pitch;
  g.fringe_per_um = fringe;
  return g;
}

TEST(Coupling, CTildeAndCHat) {
  const auto g = geom(200.0, 4.0, 0.25e-15);
  EXPECT_DOUBLE_EQ(g.c_tilde(), 0.25e-15 * 200.0 / 4.0);
  EXPECT_DOUBLE_EQ(g.c_hat(), g.c_tilde() / 8.0);
}

TEST(Coupling, ExactFormulaMatchesClosedForm) {
  const auto g = geom();
  const double xi = 1.0;
  const double xj = 1.0;
  const double u = (xi + xj) / (2.0 * g.pitch_um);  // 0.25
  EXPECT_DOUBLE_EQ(layout::exact_coupling_cap(g, xi, xj), g.c_tilde() / (1.0 - u));
}

TEST(Coupling, ExactGrowsWithWidth) {
  const auto g = geom();
  EXPECT_GT(layout::exact_coupling_cap(g, 2.0, 2.0),
            layout::exact_coupling_cap(g, 1.0, 1.0));
}

TEST(Coupling, PosynomialOrder1IsConstant) {
  const auto g = geom();
  EXPECT_DOUBLE_EQ(layout::posynomial_coupling_cap(g, 3.0, 2.0, 1), g.c_tilde());
}

TEST(Coupling, PosynomialOrder2IsPaperEq3) {
  const auto g = geom();
  const double xi = 0.8;
  const double xj = 1.4;
  const double expected = g.c_tilde() * (1.0 + (xi + xj) / (2.0 * g.pitch_um));
  EXPECT_DOUBLE_EQ(layout::posynomial_coupling_cap(g, xi, xj, 2), expected);
}

TEST(Coupling, PosynomialConvergesToExact) {
  const auto g = geom();
  const double exact = layout::exact_coupling_cap(g, 1.0, 1.0);
  double prev_err = 1e9;
  for (int k = 1; k <= 8; ++k) {
    const double err =
        std::abs(exact - layout::posynomial_coupling_cap(g, 1.0, 1.0, k));
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err / exact, 1e-4);
}

// Theorem 1(2): the relative truncation error is exactly u^k. The paper
// quotes 6.3 / 1.6 / 0.4 / 0.1 % for u = 0.25, k = 2..5.
TEST(Coupling, Theorem1ErrorRatioIsExactlyUToTheK) {
  const auto g = geom();  // u = 0.25 at xi = xj = 1
  const double exact = layout::exact_coupling_cap(g, 1.0, 1.0);
  for (int k = 1; k <= 6; ++k) {
    const double approx = layout::posynomial_coupling_cap(g, 1.0, 1.0, k);
    const double measured = (exact - approx) / exact;
    EXPECT_NEAR(measured, layout::truncation_error_ratio(0.25, k), 1e-12) << "k=" << k;
  }
  EXPECT_NEAR(layout::truncation_error_ratio(0.25, 2), 0.0625, 1e-12);   // 6.3%
  EXPECT_NEAR(layout::truncation_error_ratio(0.25, 3), 0.015625, 1e-12); // 1.6%
  EXPECT_NEAR(layout::truncation_error_ratio(0.25, 4), 0.00390625, 1e-12);
  EXPECT_NEAR(layout::truncation_error_ratio(0.25, 5), 0.0009765625, 1e-12);
}

TEST(CouplingDeath, ExactRejectsTouchingWires) {
  const auto g = geom(100.0, 1.0);
  EXPECT_DEATH(layout::exact_coupling_cap(g, 1.0, 1.0), "overlap");
}

TEST(CouplingSet, NeighborsSymmetricWithSharedCoefficients) {
  const auto f = test_support::Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  // Channel {w1,w2,w3}: pairs (w1,w2), (w2,w3); channel {w4..w7}: 3 pairs.
  EXPECT_EQ(coupling.pairs().size(), 5u);
  const auto n1 = coupling.neighbors(f.wires[0]);
  ASSERT_EQ(n1.size(), 1u);
  EXPECT_EQ(n1[0].other, f.wires[1]);
  const auto n2 = coupling.neighbors(f.wires[1]);
  ASSERT_EQ(n2.size(), 2u);
  // Shared pair has identical coefficients seen from both sides.
  const auto& from_w2 =
      n2[0].other == f.wires[0] ? n2[0] : n2[1];
  EXPECT_DOUBLE_EQ(from_w2.c_hat, n1[0].c_hat);
  EXPECT_DOUBLE_EQ(from_w2.c_tilde, n1[0].c_tilde);
  // Each node's Σ c̃ is its neighbor list summed in list order, bit for bit.
  for (netlist::NodeId v = 0; v < f.circuit.num_nodes(); ++v) {
    double sum = 0.0;
    for (const auto& nb : coupling.neighbors(v)) sum += nb.c_tilde;
    EXPECT_EQ(coupling.c_tilde_sum(v), sum) << "node " << v;
  }
  EXPECT_GT(coupling.c_tilde_sum(f.wires[1]), coupling.c_tilde_sum(f.wires[0]));
}

TEST(CouplingSet, GatesHaveNoNeighbors) {
  const auto f = test_support::Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  for (netlist::NodeId g : f.gates) EXPECT_TRUE(coupling.neighbors(g).empty());
}

TEST(CouplingSet, NoiseLinearMatchesManualSum) {
  const auto f = test_support::Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  std::vector<double> x(static_cast<std::size_t>(f.circuit.num_nodes()), 1.0);
  double manual = 0.0;
  for (std::int32_t p = 0; p < static_cast<std::int32_t>(coupling.pairs().size());
       ++p) {
    manual += coupling.pair_c_hat(p) * 2.0;
  }
  EXPECT_DOUBLE_EQ(coupling.noise_linear(x), manual);
}

TEST(CouplingSet, NoiseLinearScalesWithUniformSizes) {
  const auto f = test_support::Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  std::vector<double> x1(static_cast<std::size_t>(f.circuit.num_nodes()), 1.0);
  std::vector<double> x01(static_cast<std::size_t>(f.circuit.num_nodes()), 0.1);
  // The Table 1 noise metric is linear in sizes: 10x shrink = 10x noise cut.
  EXPECT_NEAR(coupling.noise_linear(x01), 0.1 * coupling.noise_linear(x1), 1e-25);
}

TEST(CouplingSet, ExactNoiseExceedsLinearPlusConstant) {
  const auto f = test_support::Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  std::vector<double> x(static_cast<std::size_t>(f.circuit.num_nodes()), 1.0);
  double constants = 0.0;
  for (std::int32_t p = 0; p < static_cast<std::int32_t>(coupling.pairs().size());
       ++p) {
    constants += coupling.pair_c_tilde(p);
  }
  // exact = c̃/(1-u) >= c̃(1+u) = constant + linear part.
  EXPECT_GE(coupling.noise_exact(x), constants + coupling.noise_linear(x) - 1e-30);
}

TEST(CouplingSet, MillerFoldingScalesCoefficients) {
  const auto f = test_support::Fig1Circuit::make();
  const std::vector<std::vector<netlist::NodeId>> orders = {
      {f.wires[0], f.wires[1]}};
  layout::NeighborOptions options;
  options.fold_miller = true;
  const auto weighted = layout::build_coupling_set(
      f.circuit, orders, options, [](netlist::NodeId, netlist::NodeId) { return 0.5; });
  options.fold_miller = false;
  const auto plain = layout::build_coupling_set(f.circuit, orders, options);
  ASSERT_EQ(weighted.pairs().size(), 1u);
  EXPECT_DOUBLE_EQ(weighted.pair_c_hat(0), 0.5 * plain.pair_c_hat(0));
}

TEST(CouplingSet, EmptySetBehaves) {
  const auto f = test_support::Fig1Circuit::make();
  const auto coupling = test_support::no_coupling(f.circuit);
  std::vector<double> x(static_cast<std::size_t>(f.circuit.num_nodes()), 1.0);
  EXPECT_DOUBLE_EQ(coupling.noise_linear(x), 0.0);
  EXPECT_DOUBLE_EQ(coupling.noise_exact(x), 0.0);
  EXPECT_TRUE(coupling.neighbors(f.wires[0]).empty());
  EXPECT_EQ(coupling.c_tilde_sum(f.wires[0]), 0.0);
  EXPECT_EQ(layout::CouplingSet().c_tilde_sum(f.wires[0]), 0.0);
}

}  // namespace
