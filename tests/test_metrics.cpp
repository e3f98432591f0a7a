// Metric bundle: area/power/noise/delay definitions and scaling behavior.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "timing/metrics.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;

TEST(Metrics, AreaIsWeightedSizeSum) {
  const netlist::TechParams tech;
  auto c = ChainCircuit::make(tech);
  c.circuit.set_uniform_size(1.0);
  // Two wires at the paper-style unit area, one gate at α = 25.
  const double per_unit = 2.0 * tech.wire_area_per_size + tech.gate_area_per_size;
  EXPECT_DOUBLE_EQ(timing::total_area(c.circuit, c.circuit.sizes()), per_unit);
  c.circuit.set_uniform_size(2.0);
  EXPECT_DOUBLE_EQ(timing::total_area(c.circuit, c.circuit.sizes()), 2.0 * per_unit);
}

TEST(Metrics, PhysicalWireAreaModeUsesLength) {
  netlist::TechParams tech;
  tech.wire_area_per_size = 0.0;  // physical mode: area = length · width
  auto c = ChainCircuit::make(tech);
  c.circuit.set_uniform_size(1.0);
  EXPECT_DOUBLE_EQ(timing::total_area(c.circuit, c.circuit.sizes()),
                   200.0 + 300.0 + tech.gate_area_per_size);
}

TEST(Metrics, CapIncludesFringing) {
  const netlist::TechParams tech;
  auto c = ChainCircuit::make(tech);
  c.circuit.set_uniform_size(1.0);
  const double expected = (tech.wire_cap_per_um * 500.0) +  // both wires
                          (tech.wire_fringe_per_um * 500.0) + tech.gate_unit_cap;
  EXPECT_NEAR(timing::total_cap(c.circuit, c.circuit.sizes()), expected, 1e-21);
}

TEST(Metrics, PowerIsVSquaredFTimesCap) {
  const netlist::TechParams tech;
  auto c = ChainCircuit::make(tech);
  c.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(c.circuit);
  const auto m = timing::compute_metrics(c.circuit, coupling, c.circuit.sizes());
  EXPECT_NEAR(m.power_w, tech.power_per_farad() * m.cap_f, 1e-18);
  EXPECT_NEAR(m.power_w, 3.3 * 3.3 * 200e6 * m.cap_f, 1e-18);
}

TEST(Metrics, FringingBreaksPerfectPowerScaling) {
  // Shrinking 1.0 -> 0.1 cuts ĉ·x by 10 but leaves fringing; the paper's
  // 86.8% power improvement (not 90%) comes exactly from this.
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  f.circuit.set_uniform_size(1.0);
  const double cap1 = timing::total_cap(f.circuit, f.circuit.sizes());
  f.circuit.set_uniform_size(0.1);
  const double cap01 = timing::total_cap(f.circuit, f.circuit.sizes());
  EXPECT_GT(cap01, 0.1 * cap1);
  EXPECT_LT(cap01, 0.2 * cap1);
}

TEST(Metrics, NoiseMatchesCouplingSet) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto m = timing::compute_metrics(f.circuit, coupling, f.circuit.sizes());
  EXPECT_DOUBLE_EQ(m.noise_f, coupling.noise_linear(f.circuit.sizes()));
  EXPECT_DOUBLE_EQ(m.noise_exact_f, coupling.noise_exact(f.circuit.sizes()));
  EXPECT_GT(m.noise_exact_f, m.noise_f);  // exact includes the constant term
}

TEST(Metrics, DelayMatchesArrivalAnalysis) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto m = timing::compute_metrics(f.circuit, coupling, f.circuit.sizes());
  EXPECT_GT(m.delay_s, 0.0);
  // Uniform down-sizing to 0.1: ĉ·x products are scale-free (r up 10x,
  // sized caps down 10x), but the constant caps (fringing, coupling c̃,
  // output loads) now see 10x the resistance — delay grows by a bounded
  // factor, well under the naive 10x.
  f.circuit.set_uniform_size(0.1);
  const auto m01 = timing::compute_metrics(f.circuit, coupling, f.circuit.sizes());
  EXPECT_LT(m01.delay_s, 8.0 * m.delay_s);
  EXPECT_GT(m01.delay_s, 0.3 * m.delay_s);
}

TEST(Metrics, CouplingRaisesDelay) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto with = timing::compute_metrics(f.circuit, f.make_coupling(),
                                            f.circuit.sizes());
  const auto without = timing::compute_metrics(f.circuit,
                                               test_support::no_coupling(f.circuit),
                                               f.circuit.sizes());
  EXPECT_GT(with.delay_s, without.delay_s);
  EXPECT_DOUBLE_EQ(with.area_um2, without.area_um2);
  EXPECT_DOUBLE_EQ(with.cap_f, without.cap_f);
}

}  // namespace
