// Gate-type electrical differentiation (logical-effort-style complexity).
#include <gtest/gtest.h>

#include "netlist/bench_parser.hpp"
#include "netlist/builder.hpp"
#include "netlist/elaborator.hpp"
#include "timing/metrics.hpp"

namespace {

using namespace lrsizer;
using netlist::LogicOp;

TEST(GateComplexity, InverterIsUnity) {
  EXPECT_DOUBLE_EQ(netlist::gate_complexity(LogicOp::kNot, 1), 1.0);
  EXPECT_DOUBLE_EQ(netlist::gate_complexity(LogicOp::kBuf, 1), 1.0);
}

TEST(GateComplexity, StacksGrowWithFanin) {
  EXPECT_LT(netlist::gate_complexity(LogicOp::kNand, 2),
            netlist::gate_complexity(LogicOp::kNand, 4));
  EXPECT_LT(netlist::gate_complexity(LogicOp::kNor, 2),
            netlist::gate_complexity(LogicOp::kNor, 4));
}

TEST(GateComplexity, NorCostsMoreThanNand) {
  // PMOS stacks are weaker: the NOR is the heavier cell at equal fanin.
  EXPECT_GT(netlist::gate_complexity(LogicOp::kNor, 2),
            netlist::gate_complexity(LogicOp::kNand, 2));
}

TEST(GateComplexity, AndOrIncludeTheExtraInverter) {
  EXPECT_GT(netlist::gate_complexity(LogicOp::kAnd, 2),
            netlist::gate_complexity(LogicOp::kNand, 2));
  EXPECT_GT(netlist::gate_complexity(LogicOp::kOr, 2),
            netlist::gate_complexity(LogicOp::kNor, 2));
}

TEST(GateComplexity, XorIsHeaviest) {
  EXPECT_GT(netlist::gate_complexity(LogicOp::kXor, 2),
            netlist::gate_complexity(LogicOp::kNor, 2));
}

TEST(Builder, ComplexityScalesElectricalWeights) {
  const netlist::TechParams tech;
  netlist::CircuitBuilder b(tech);
  const auto d = b.add_driver();
  const auto w = b.add_wire(100.0);
  const auto g = b.add_gate(0.0, 2.5);
  const auto w2 = b.add_wire(100.0);
  b.connect(d, w);
  b.connect(w, g);
  b.connect(g, w2);
  b.mark_primary_output(w2);
  const auto c = b.finalize();
  const auto v = b.node_of(g);
  EXPECT_DOUBLE_EQ(c.unit_res(v), tech.gate_unit_res * 2.5);
  EXPECT_DOUBLE_EQ(c.unit_cap(v), tech.gate_unit_cap * 2.5);
  EXPECT_DOUBLE_EQ(c.area_weight(v), tech.gate_area_per_size * 2.5);
}

TEST(Elaborator, DifferentiatedGatesAreHeavierThanUniform) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  netlist::ElabOptions uniform;
  uniform.differentiate_gate_types = false;
  netlist::ElabOptions typed;
  typed.differentiate_gate_types = true;
  const auto a = netlist::elaborate(logic, netlist::TechParams{}, uniform);
  const auto b = netlist::elaborate(logic, netlist::TechParams{}, typed);

  // c17 is all 2-input NANDs: complexity (2+2)/3 = 4/3 on every gate.
  const netlist::TechParams tech;
  for (netlist::NodeId v = b.circuit.first_component();
       v < b.circuit.end_component(); ++v) {
    if (!b.circuit.is_gate(v)) continue;
    EXPECT_NEAR(b.circuit.unit_res(v), tech.gate_unit_res * 4.0 / 3.0, 1e-9);
  }
  for (netlist::NodeId v = a.circuit.first_component();
       v < a.circuit.end_component(); ++v) {
    if (!a.circuit.is_gate(v)) continue;
    EXPECT_DOUBLE_EQ(a.circuit.unit_res(v), tech.gate_unit_res);
  }
}

TEST(Elaborator, DifferentiationSlowsTheUnsizedCircuit) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  netlist::ElabOptions uniform;
  netlist::ElabOptions typed;
  typed.differentiate_gate_types = true;
  auto a = netlist::elaborate(logic, netlist::TechParams{}, uniform);
  auto b = netlist::elaborate(logic, netlist::TechParams{}, typed);
  a.circuit.set_uniform_size(1.0);
  b.circuit.set_uniform_size(1.0);
  const layout::CouplingSet none_a(a.circuit.num_nodes(), {});
  const layout::CouplingSet none_b(b.circuit.num_nodes(), {});
  const auto ma = timing::compute_metrics(a.circuit, none_a, a.circuit.sizes());
  const auto mb = timing::compute_metrics(b.circuit, none_b, b.circuit.sizes());
  EXPECT_GT(mb.delay_s, ma.delay_s);
  EXPECT_GT(mb.area_um2, ma.area_um2);
}

}  // namespace
