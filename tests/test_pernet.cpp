// The distributed per-net crosstalk bound extension (paper §4.1 note).
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "netlist/generator.hpp"
#include "test_helpers.hpp"
#include "timing/metrics.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::Fig1Circuit;


TEST(PerNet, OwnedPairsPartitionThePairSet) {
  const auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  std::size_t owned_total = 0;
  for (netlist::NodeId v = 0; v < f.circuit.num_nodes(); ++v) {
    for (std::int32_t p : coupling.owned_pairs(v)) {
      EXPECT_EQ(coupling.pairs()[static_cast<std::size_t>(p)].a, v);
      ++owned_total;
    }
  }
  EXPECT_EQ(owned_total, coupling.pairs().size());
}

TEST(PerNet, OwnedNoiseSumsToTotal) {
  const auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  std::vector<double> x(static_cast<std::size_t>(f.circuit.num_nodes()), 1.3);
  double sum = 0.0;
  for (netlist::NodeId v = 0; v < f.circuit.num_nodes(); ++v) {
    sum += coupling.owned_noise_linear(v, x);
  }
  EXPECT_NEAR(sum, coupling.noise_linear(x), 1e-25);
}

TEST(PerNet, DeriveBoundsFillsOwnersOnly) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  core::BoundFactors factors;
  factors.per_net_noise = 0.2;
  const auto bounds =
      core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), factors);
  ASSERT_TRUE(bounds.per_net_enabled());
  for (netlist::NodeId v = 0; v < f.circuit.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (coupling.owned_pairs(v).empty()) {
      EXPECT_DOUBLE_EQ(bounds.per_net_noise_f[i], 0.0);
    } else {
      EXPECT_NEAR(bounds.per_net_noise_f[i],
                  0.2 * coupling.owned_noise_linear(v, f.circuit.sizes()), 1e-25);
    }
  }
}

TEST(PerNet, OgwsSatisfiesEveryNetBound) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  core::BoundFactors factors;
  factors.noise = 0.5;          // loose total bound
  factors.per_net_noise = 0.2;  // binding distributed bounds
  const auto bounds =
      core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), factors);
  const auto result = core::run_ogws(f.circuit, coupling, bounds);
  for (netlist::NodeId v = 0; v < f.circuit.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (bounds.per_net_noise_f.empty() || bounds.per_net_noise_f[i] <= 0.0) continue;
    EXPECT_LE(coupling.owned_noise_linear(v, result.sizes),
              bounds.per_net_noise_f[i] * 1.02)
        << "net " << v;
  }
}

TEST(PerNet, DistributedBoundsAreStricterThanTotal) {
  // Per-net bounds at factor q imply the total bound at factor q; the
  // converse is false — so the distributed problem can cost more area.
  netlist::GeneratorSpec spec;
  spec.num_gates = 120;
  spec.num_wires = 260;
  spec.num_inputs = 14;
  spec.num_outputs = 9;
  spec.seed = 11;
  const auto logic = netlist::generate_circuit(spec);

  core::FlowOptions total_only;
  total_only.bound_factors.noise = 0.2;
  const auto a = test_support::run_flow(logic, total_only);

  core::FlowOptions distributed = total_only;
  distributed.bound_factors.per_net_noise = 0.2;
  const auto b = test_support::run_flow(logic, distributed);

  EXPECT_GE(b.final_metrics.area_um2, a.final_metrics.area_um2 * 0.98);
  // And the distributed run satisfies the per-net bounds.
  EXPECT_LE(b.ogws.max_violation, 0.03);
}

TEST(PerNet, NoiseMultipliersForOwner) {
  std::vector<double> per_net = {0.0, 0.5, 0.0, 2.0};
  const core::NoiseMultipliers plain(3.0);
  EXPECT_DOUBLE_EQ(plain.for_owner(1), 3.0);
  const core::NoiseMultipliers dist(3.0, &per_net);
  EXPECT_DOUBLE_EQ(dist.for_owner(1), 3.5);
  EXPECT_DOUBLE_EQ(dist.for_owner(3), 5.0);
}

TEST(PerNet, FlowRunsEndToEndWithDistributedBounds) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 80;
  spec.num_wires = 180;
  spec.seed = 6;
  const auto logic = netlist::generate_circuit(spec);
  core::FlowOptions options;
  options.bound_factors.noise = 0.5;
  options.bound_factors.per_net_noise = 0.25;
  const auto flow = test_support::run_flow(logic, options);
  EXPECT_LE(flow.ogws.max_violation, 0.03);
  EXPECT_LT(flow.final_metrics.area_um2, flow.init_metrics.area_um2);
}

}  // namespace
