// Load passes: hand-computed π-model values on the chain circuit, where
// coupling attaches (decision D4: on the victim only), C' exclusion rules.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "layout/channels.hpp"
#include "layout/neighbors.hpp"
#include "netlist/elaborator.hpp"
#include "netlist/generator.hpp"
#include "test_helpers.hpp"
#include "timing/loads.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;

TEST(Loads, HandComputedChainAtUnitSizes) {
  const netlist::TechParams tech;
  auto c = ChainCircuit::make(tech);
  c.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(c.circuit);

  timing::LoadAnalysis loads;
  timing::compute_loads(c.circuit, coupling, c.circuit.sizes(), loads);

  // w2 (300 µm, PO with C_L): half-cap + load.
  const double c_w2 = tech.wire_cap_per_um * 300.0;
  const double f_w2 = tech.wire_fringe_per_um * 300.0;
  const double half_w2 = 0.5 * (c_w2 + f_w2);
  const auto i_w2 = static_cast<std::size_t>(c.wire_out);
  EXPECT_NEAR(loads.cap_delay[i_w2], half_w2 + tech.output_load, 1e-21);
  EXPECT_NEAR(loads.cap_prime[i_w2], 0.5 * f_w2 + tech.output_load, 1e-21);
  EXPECT_NEAR(loads.load_in[i_w2], c_w2 + f_w2 + tech.output_load, 1e-21);

  // gate: sees w2's full load; presents its input cap.
  const auto i_g = static_cast<std::size_t>(c.gate);
  EXPECT_NEAR(loads.cap_delay[i_g], loads.load_in[i_w2], 1e-21);
  EXPECT_NEAR(loads.cap_prime[i_g], loads.cap_delay[i_g], 1e-21);
  EXPECT_NEAR(loads.load_in[i_g], tech.gate_unit_cap, 1e-21);

  // w1 (200 µm): half-cap + gate input cap.
  const double c_w1 = tech.wire_cap_per_um * 200.0;
  const double f_w1 = tech.wire_fringe_per_um * 200.0;
  const auto i_w1 = static_cast<std::size_t>(c.wire_in);
  EXPECT_NEAR(loads.cap_delay[i_w1], 0.5 * (c_w1 + f_w1) + tech.gate_unit_cap, 1e-21);
  EXPECT_NEAR(loads.cap_prime[i_w1], 0.5 * f_w1 + tech.gate_unit_cap, 1e-21);

  // driver: sees w1's two halves + downstream.
  const auto i_d = static_cast<std::size_t>(c.driver);
  EXPECT_NEAR(loads.cap_delay[i_d], c_w1 + f_w1 + tech.gate_unit_cap, 1e-21);
}

TEST(Loads, GateIsolatesDownstreamStage) {
  // The driver's load must not contain anything beyond the gate's input cap
  // (the gate resistance isolates w2 and the output load).
  const netlist::TechParams tech;
  auto c = ChainCircuit::make(tech);
  c.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(c.circuit);
  timing::LoadAnalysis loads;
  timing::compute_loads(c.circuit, coupling, c.circuit.sizes(), loads);
  const auto i_d = static_cast<std::size_t>(c.driver);
  EXPECT_LT(loads.cap_delay[i_d], 6e-15);  // w1 caps + 0.16 fF, not 20 fF C_L
}

TEST(Loads, CapPrimeExcludesOwnSizeTerms) {
  // C'_i must not change when x_i changes (all x_i-proportional terms are
  // stripped); C_i must grow.
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  timing::LoadAnalysis base;
  timing::compute_loads(f.circuit, coupling, f.circuit.sizes(), base);

  const netlist::NodeId w = f.wires[3];  // coupled wire in channel 2
  auto x = f.circuit.sizes();
  x[static_cast<std::size_t>(w)] = 2.0;
  timing::LoadAnalysis bumped;
  timing::compute_loads(f.circuit, coupling, x, bumped);

  EXPECT_NEAR(bumped.cap_prime[static_cast<std::size_t>(w)],
              base.cap_prime[static_cast<std::size_t>(w)], 1e-24);
  EXPECT_GT(bumped.cap_delay[static_cast<std::size_t>(w)],
            base.cap_delay[static_cast<std::size_t>(w)]);
}

TEST(Loads, CouplingEntersVictimDelayCap) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto uncoupled = test_support::no_coupling(f.circuit);
  const auto coupled = f.make_coupling();

  timing::LoadAnalysis without;
  timing::compute_loads(f.circuit, uncoupled, f.circuit.sizes(), without);
  timing::LoadAnalysis with;
  timing::compute_loads(f.circuit, coupled, f.circuit.sizes(), with);

  const auto i = static_cast<std::size_t>(f.wires[1]);  // w2: two neighbors
  double expected_extra = 0.0;
  for (const auto& nb : coupled.neighbors(f.wires[1])) {
    expected_extra += nb.c_tilde + nb.c_hat * 2.0;  // x_i = x_j = 1
  }
  EXPECT_NEAR(with.cap_delay[i] - without.cap_delay[i], expected_extra, 1e-21);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Loads, LocalOnlyHidesCouplingFromUpstream) {
  // Decision D4 as a property: coupling capacitance loads only the victim
  // wire's own delay. Against a load pass with no coupling pairs at all, at
  // random sizes in the box, every load_in and every gate's and driver's
  // C_i and C'_i are the same bits, and a wire's C_i and C'_i differ by
  // exactly its coupling terms: Σ c̃ + Σ ĉ (x_i + x_j) and Σ c̃.
  for (const char* profile : {"c432", "c880"}) {
    for (int seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(std::string(profile) + " seed " + std::to_string(seed));
      const auto spec = netlist::spec_for_profile(profile, seed);
      const auto logic = netlist::generate_circuit(spec);
      const auto elab = netlist::elaborate(logic, netlist::TechParams{}, spec.elab);
      const netlist::Circuit& circuit = elab.circuit;
      const auto channels = layout::assign_channels(circuit, elab.net_of_node, logic);
      const auto coupling = layout::build_coupling_set(circuit, channels.channels,
                                                       layout::NeighborOptions{});
      ASSERT_FALSE(coupling.pairs().empty());

      util::Rng rng(static_cast<std::uint64_t>(seed));
      std::vector<double> x(static_cast<std::size_t>(circuit.num_nodes()), 0.0);
      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
        const double lo = circuit.lower_bound(v);
        x[static_cast<std::size_t>(v)] =
            lo * std::pow(circuit.upper_bound(v) / lo, rng.next_double());
      }
      timing::LoadAnalysis coupled;
      timing::compute_loads(circuit, coupling, x, coupled);
      timing::LoadAnalysis bare;
      timing::compute_loads(circuit, test_support::no_coupling(circuit), x, bare);

      for (netlist::NodeId v = 1; v < circuit.sink(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        EXPECT_TRUE(same_bits(coupled.load_in[i], bare.load_in[i])) << "node " << v;
        if (!circuit.is_wire(v)) {
          EXPECT_TRUE(same_bits(coupled.cap_delay[i], bare.cap_delay[i])) << "node " << v;
          EXPECT_TRUE(same_bits(coupled.cap_prime[i], bare.cap_prime[i])) << "node " << v;
          continue;
        }
        double c_tilde = 0.0;  // Σ c̃_ij
        double c_hat = 0.0;    // Σ ĉ_ij (x_i + x_j)
        for (const auto& nb : coupling.neighbors(v)) {
          c_tilde += nb.c_tilde;
          c_hat += nb.c_hat * (x[i] + x[static_cast<std::size_t>(nb.other)]);
        }
        EXPECT_NEAR(coupled.cap_delay[i] - bare.cap_delay[i], c_tilde + c_hat,
                    1e-12 * coupled.cap_delay[i])
            << "wire " << v;
        EXPECT_NEAR(coupled.cap_prime[i] - bare.cap_prime[i], c_tilde,
                    1e-12 * coupled.cap_prime[i])
            << "wire " << v;
      }
    }
  }
}

TEST(Loads, NeighborSizeRaisesVictimLoad) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  timing::LoadAnalysis base;
  timing::compute_loads(f.circuit, coupling, f.circuit.sizes(), base);

  auto x = f.circuit.sizes();
  x[static_cast<std::size_t>(f.wires[1])] = 4.0;  // fatten w2
  timing::LoadAnalysis bumped;
  timing::compute_loads(f.circuit, coupling, x, bumped);

  // w1's delay cap grows by ĉ_12 * Δx_2.
  const auto i_w1 = static_cast<std::size_t>(f.wires[0]);
  const auto nb = coupling.neighbors(f.wires[0]);
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_NEAR(bumped.cap_delay[i_w1] - base.cap_delay[i_w1], nb[0].c_hat * 3.0,
              1e-21);
}

TEST(Loads, FanoutSumsChildLoads) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(f.circuit);
  timing::LoadAnalysis loads;
  timing::compute_loads(f.circuit, coupling, f.circuit.sizes(), loads);
  // gate A drives w4 and w5: its delay cap is the sum of both wire loads.
  const auto i = static_cast<std::size_t>(f.gates[0]);
  EXPECT_NEAR(loads.cap_delay[i],
              loads.load_in[static_cast<std::size_t>(f.wires[3])] +
                  loads.load_in[static_cast<std::size_t>(f.wires[4])],
              1e-21);
}

}  // namespace
