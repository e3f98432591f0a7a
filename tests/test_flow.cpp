// End-to-end two-stage flow integration tests.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "test_helpers.hpp"
#include "util/memtrack.hpp"

namespace {

using namespace lrsizer;

TEST(Flow, C17EndToEnd) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  core::FlowOptions options;
  // c17 is so shallow that the Table 1 factors (noise 0.10 pins every wire
  // at its lower bound, where the wire resistance already busts A0 by ~1%)
  // make the instance infeasible; use slightly looser, feasible bounds.
  options.bound_factors.delay = 1.15;
  options.bound_factors.noise = 0.12;
  const auto flow = test_support::run_flow(logic, options);

  EXPECT_EQ(flow.circuit.num_gates(), 6);
  EXPECT_GT(flow.circuit.num_wires(), 6);
  // Constraints hold within the OGWS tolerance.
  EXPECT_LE(flow.final_metrics.delay_s, flow.bounds.delay_s * 1.02);
  EXPECT_LE(flow.final_metrics.cap_f, flow.bounds.cap_f * 1.02);
  EXPECT_LE(flow.final_metrics.noise_f, flow.bounds.noise_f * 1.02);
  // Area shrinks substantially from the unit-size start.
  EXPECT_LT(flow.final_metrics.area_um2, 0.5 * flow.init_metrics.area_um2);
}

TEST(Flow, InfeasibleBoundsReturnLeastViolatingIterate) {
  // The literal Table 1 factors are (marginally) infeasible on c17: the
  // flow must not crash, must report non-convergence, and must return the
  // least-violating sizes it saw.
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto flow = test_support::run_flow(logic, {});
  EXPECT_LE(flow.ogws.max_violation, 0.05);  // within a few % of feasible
  EXPECT_GT(flow.final_metrics.area_um2, 0.0);
}

TEST(Flow, GeneratedCircuitEndToEnd) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 150;
  spec.num_wires = 320;
  spec.num_inputs = 16;
  spec.num_outputs = 10;
  spec.depth = 12;
  spec.seed = 5;
  const auto logic = netlist::generate_circuit(spec);
  core::FlowOptions options;
  const auto flow = test_support::run_flow(logic, options);

  EXPECT_EQ(flow.circuit.num_gates(), 150);
  EXPECT_EQ(flow.circuit.num_wires(), 320);
  EXPECT_LE(flow.final_metrics.delay_s, flow.bounds.delay_s * 1.03);
  EXPECT_LE(flow.final_metrics.noise_f, flow.bounds.noise_f * 1.03);
  EXPECT_LT(flow.final_metrics.area_um2, flow.init_metrics.area_um2);
  EXPECT_LT(flow.final_metrics.noise_f, 0.2 * flow.init_metrics.noise_f);
}

TEST(Flow, WossReducesEffectiveLoading) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 120;
  spec.num_wires = 260;
  spec.num_inputs = 14;
  spec.num_outputs = 8;
  spec.seed = 9;
  const auto logic = netlist::generate_circuit(spec);
  core::FlowOptions options;
  const auto flow = test_support::run_flow(logic, options);
  EXPECT_LE(flow.ordering_cost_woss, flow.ordering_cost_initial);
}

TEST(Flow, DisablingWossKeepsInitialOrder) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 80;
  spec.num_wires = 180;
  spec.seed = 2;
  const auto logic = netlist::generate_circuit(spec);
  core::FlowOptions options;
  options.use_woss = false;
  const auto flow = test_support::run_flow(logic, options);
  EXPECT_DOUBLE_EQ(flow.ordering_cost_woss, flow.ordering_cost_initial);
}

TEST(Flow, DeterministicEndToEnd) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 60;
  spec.num_wires = 140;
  spec.seed = 8;
  const auto logic = netlist::generate_circuit(spec);
  const auto a = test_support::run_flow(logic, {});
  const auto b = test_support::run_flow(logic, {});
  EXPECT_DOUBLE_EQ(a.final_metrics.area_um2, b.final_metrics.area_um2);
  EXPECT_DOUBLE_EQ(a.final_metrics.noise_f, b.final_metrics.noise_f);
  EXPECT_EQ(a.ogws.iterations, b.ogws.iterations);
}

TEST(Flow, MemoryAccountingAboveBaseAndGrowsWithSize) {
  netlist::GeneratorSpec small_spec;
  small_spec.num_gates = 50;
  small_spec.num_wires = 120;
  const auto small_flow =
      test_support::run_flow(netlist::generate_circuit(small_spec), {});

  netlist::GeneratorSpec big_spec;
  big_spec.num_gates = 400;
  big_spec.num_wires = 850;
  big_spec.num_inputs = 40;
  big_spec.num_outputs = 25;
  const auto big_flow =
      test_support::run_flow(netlist::generate_circuit(big_spec), {});

  EXPECT_GT(small_flow.memory_bytes, util::kMemoryBaseBytes);
  EXPECT_GT(big_flow.memory_bytes, small_flow.memory_bytes);
}

TEST(Flow, MillerFoldingChangesCoupling) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 80;
  spec.num_wires = 180;
  spec.seed = 4;
  const auto logic = netlist::generate_circuit(spec);
  core::FlowOptions with;
  with.neighbors.fold_miller = true;
  core::FlowOptions without;
  without.neighbors.fold_miller = false;
  const auto a = test_support::run_flow(logic, with);
  const auto b = test_support::run_flow(logic, without);
  // Folding m_ij <= 2 rescales the noise metric; the runs must differ.
  EXPECT_NE(a.init_metrics.noise_f, b.init_metrics.noise_f);
}

TEST(Flow, StageTimesRecorded) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto flow = test_support::run_flow(logic, {});
  EXPECT_GE(flow.stage1_seconds, 0.0);
  EXPECT_GT(flow.stage2_seconds, 0.0);
}

}  // namespace
