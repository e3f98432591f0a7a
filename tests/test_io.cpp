// Serialization: .bench writer round-trip and VCD export.
#include <gtest/gtest.h>

#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/generator.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"

namespace {

using namespace lrsizer;

TEST(BenchWriter, C17RoundTrip) {
  const auto original = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto text = netlist::to_bench_string(original, "round trip");
  const auto reparsed = netlist::parse_bench_string(text);
  ASSERT_EQ(reparsed.num_gates_logic(), original.num_gates_logic());
  ASSERT_EQ(reparsed.primary_inputs().size(), original.primary_inputs().size());
  ASSERT_EQ(reparsed.primary_outputs().size(), original.primary_outputs().size());
  for (std::int32_t g = 0; g < original.num_gates_logic(); ++g) {
    EXPECT_EQ(reparsed.gate(g).name, original.gate(g).name);
    EXPECT_EQ(reparsed.gate(g).op, original.gate(g).op);
    EXPECT_EQ(reparsed.gate(g).fanin, original.gate(g).fanin);
  }
}

TEST(BenchWriter, GeneratedCircuitRoundTripPreservesSimulation) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 90;
  spec.num_wires = 200;
  spec.num_inputs = 12;
  spec.num_outputs = 7;
  spec.seed = 13;
  const auto original = netlist::generate_circuit(spec);
  const auto reparsed =
      netlist::parse_bench_string(netlist::to_bench_string(original));

  // The behavioral oracle: identical waveforms under identical stimuli.
  const auto vectors = sim::random_vectors(12, 24, 99);
  const auto sim_a = sim::simulate(original, vectors);
  const auto sim_b = sim::simulate(reparsed, vectors);
  EXPECT_EQ(sim_a.words_per_row, sim_b.words_per_row);
  EXPECT_EQ(sim_a.rows, sim_b.rows);
}

TEST(BenchWriter, HeaderCommentEmitted) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto text = netlist::to_bench_string(logic, "hello world");
  EXPECT_EQ(text.rfind("# hello world\n", 0), 0u);
}

TEST(Vcd, StructureAndInitialDump) {
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  const auto result = sim::simulate(logic, {{0}, {1}});
  const auto vcd = sim::to_vcd_string(logic, result);
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! a $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 \" y $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  // Initial values: a = 0, y = 1.
  EXPECT_NE(vcd.find("0!"), std::string::npos);
  EXPECT_NE(vcd.find("1\""), std::string::npos);
}

TEST(Vcd, TransitionsAppearAtTheRightTimes) {
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  sim::SimOptions options;
  options.vector_period = 10;
  options.gate_delay = 3;
  const auto result = sim::simulate(logic, {{0}, {1}}, options);
  const auto vcd = sim::to_vcd_string(logic, result);
  // a rises at #10, y falls at #13.
  EXPECT_NE(vcd.find("#10\n1!"), std::string::npos);
  EXPECT_NE(vcd.find("#13\n0\""), std::string::npos);
}

TEST(Vcd, CoversAllNetsOfC17) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = sim::simulate(logic, sim::random_vectors(5, 8, 4));
  const auto vcd = sim::to_vcd_string(logic, result);
  for (std::int32_t g = 0; g < logic.num_gates_logic(); ++g) {
    EXPECT_NE(vcd.find(" " + logic.gate(g).name + " $end"), std::string::npos)
        << logic.gate(g).name;
  }
}

}  // namespace
