// Circuit graph + builder invariants (paper §2.1 index contract).
#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/circuit.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;

TEST(Circuit, ChainShape) {
  const auto c = ChainCircuit::make();
  EXPECT_EQ(c.circuit.num_drivers(), 1);
  EXPECT_EQ(c.circuit.num_gates(), 1);
  EXPECT_EQ(c.circuit.num_wires(), 2);
  EXPECT_EQ(c.circuit.num_components(), 3);
  // nodes: source + 1 driver + 3 components + sink
  EXPECT_EQ(c.circuit.num_nodes(), 6);
  // edges: source->driver, d->w1, w1->g, g->w2, w2->sink
  EXPECT_EQ(c.circuit.num_edges(), 5);
}

TEST(Circuit, IndexContract) {
  const auto f = Fig1Circuit::make();
  const auto& c = f.circuit;
  EXPECT_EQ(c.source(), 0);
  EXPECT_EQ(c.sink(), c.num_nodes() - 1);
  EXPECT_EQ(c.kind(0), netlist::NodeKind::kSource);
  EXPECT_EQ(c.kind(c.sink()), netlist::NodeKind::kSink);
  for (netlist::NodeId v = 1; v <= c.num_drivers(); ++v) {
    EXPECT_TRUE(c.is_driver(v));
  }
  for (netlist::NodeId v = c.first_component(); v < c.end_component(); ++v) {
    EXPECT_TRUE(c.is_sized(v));
  }
  for (netlist::EdgeId e = 0; e < c.num_edges(); ++e) {
    EXPECT_LT(c.edge_from(e), c.edge_to(e));
  }
}

TEST(Circuit, Fig1Counts) {
  const auto f = Fig1Circuit::make();
  EXPECT_EQ(f.circuit.num_drivers(), 3);
  EXPECT_EQ(f.circuit.num_gates(), 3);
  EXPECT_EQ(f.circuit.num_wires(), 7);
  // n + s + 2 nodes, exactly as the paper's Figure 2 (15 nodes, 0..14).
  EXPECT_EQ(f.circuit.num_nodes(), 15);
}

TEST(Circuit, AdjacencyMatchesConstruction) {
  const auto c = ChainCircuit::make();
  ASSERT_EQ(c.circuit.outputs(c.driver).size(), 1u);
  EXPECT_EQ(c.circuit.outputs(c.driver)[0], c.wire_in);
  ASSERT_EQ(c.circuit.inputs(c.gate).size(), 1u);
  EXPECT_EQ(c.circuit.inputs(c.gate)[0], c.wire_in);
  ASSERT_EQ(c.circuit.outputs(c.wire_out).size(), 1u);
  EXPECT_EQ(c.circuit.outputs(c.wire_out)[0], c.circuit.sink());
}

TEST(Circuit, EdgeCsrConsistency) {
  const auto f = Fig1Circuit::make();
  const auto& c = f.circuit;
  for (netlist::NodeId v = 0; v < c.num_nodes(); ++v) {
    const auto outs = c.outputs(v);
    const auto out_edges = c.output_edges(v);
    ASSERT_EQ(outs.size(), out_edges.size());
    for (std::size_t k = 0; k < outs.size(); ++k) {
      EXPECT_EQ(c.edge_from(out_edges[k]), v);
      EXPECT_EQ(c.edge_to(out_edges[k]), outs[k]);
    }
  }
}

TEST(Circuit, ResistanceAndCapacitanceModel) {
  const netlist::TechParams tech;
  const auto c = ChainCircuit::make(tech);
  // Gate: r = r̂/x, c = ĉ·x, no fringing.
  EXPECT_DOUBLE_EQ(c.circuit.resistance(c.gate, 2.0), tech.gate_unit_res / 2.0);
  EXPECT_DOUBLE_EQ(c.circuit.ground_cap(c.gate, 2.0), tech.gate_unit_cap * 2.0);
  EXPECT_DOUBLE_EQ(c.circuit.fringe_cap(c.gate), 0.0);
  // Wire (200 µm): scaled per-µm values plus fringing.
  EXPECT_DOUBLE_EQ(c.circuit.unit_res(c.wire_in), tech.wire_res_per_um * 200.0);
  EXPECT_DOUBLE_EQ(c.circuit.unit_cap(c.wire_in), tech.wire_cap_per_um * 200.0);
  EXPECT_DOUBLE_EQ(c.circuit.fringe_cap(c.wire_in), tech.wire_fringe_per_um * 200.0);
  // Driver resistance is size-independent.
  EXPECT_DOUBLE_EQ(c.circuit.resistance(c.driver, 123.0), tech.driver_res);
}

TEST(Circuit, SetUniformSizeClampsToBounds) {
  auto c = ChainCircuit::make();
  c.circuit.set_uniform_size(1e9);
  for (netlist::NodeId v = c.circuit.first_component(); v < c.circuit.end_component();
       ++v) {
    EXPECT_DOUBLE_EQ(c.circuit.size(v), c.circuit.upper_bound(v));
  }
  c.circuit.set_uniform_size(0.0);
  for (netlist::NodeId v = c.circuit.first_component(); v < c.circuit.end_component();
       ++v) {
    EXPECT_DOUBLE_EQ(c.circuit.size(v), c.circuit.lower_bound(v));
  }
}

TEST(Circuit, PinLoadOnPrimaryOutput) {
  const netlist::TechParams tech;
  const auto c = ChainCircuit::make(tech);
  EXPECT_DOUBLE_EQ(c.circuit.pin_load(c.wire_out), tech.output_load);
  EXPECT_DOUBLE_EQ(c.circuit.pin_load(c.wire_in), 0.0);
}

TEST(Circuit, MemoryAccountingIsPositiveAndGrows) {
  const std::size_t small = ChainCircuit::make().circuit.memory_bytes();
  EXPECT_GT(small, 0u);
  EXPECT_GT(Fig1Circuit::make().circuit.memory_bytes(), small);
}

TEST(CircuitBuilder, TopologicalRenumberingHandlesShuffledInsertion) {
  // Build gates in "wrong" order: connections still force topological ids.
  netlist::CircuitBuilder b;
  const auto g2 = b.add_gate();   // consumes w1
  const auto w2 = b.add_wire(100.0);
  const auto g1 = b.add_gate();   // drives w1
  const auto w1 = b.add_wire(100.0);
  const auto d = b.add_driver();
  const auto w0 = b.add_wire(100.0);
  b.connect(d, w0);
  b.connect(w0, g1);
  b.connect(g1, w1);
  b.connect(w1, g2);
  b.connect(g2, w2);
  b.mark_primary_output(w2);
  const auto c = b.finalize();
  c.validate();
  EXPECT_LT(b.node_of(g1), b.node_of(w1));
  EXPECT_LT(b.node_of(w1), b.node_of(g2));
  EXPECT_LT(b.node_of(g2), b.node_of(w2));
}

TEST(CircuitBuilderDeath, RejectsCycle) {
  EXPECT_DEATH(
      {
        netlist::CircuitBuilder b;
        const auto d = b.add_driver();
        const auto g1 = b.add_gate();
        const auto g2 = b.add_gate();
        const auto w = b.add_wire(10.0);
        b.connect(d, w);
        b.connect(w, g1);
        b.connect(g1, g2);
        b.connect(g2, g1);  // cycle
        b.mark_primary_output(g2);
        b.finalize();
      },
      "cycle");
}

TEST(CircuitBuilderDeath, RejectsUndrivenComponent) {
  EXPECT_DEATH(
      {
        netlist::CircuitBuilder b;
        const auto d = b.add_driver();
        const auto w = b.add_wire(10.0);
        const auto g = b.add_gate();  // never driven
        b.connect(d, w);
        b.mark_primary_output(w);
        (void)g;
        b.finalize();
      },
      "undriven");
}

TEST(CircuitBuilderDeath, RejectsDanglingComponent) {
  EXPECT_DEATH(
      {
        netlist::CircuitBuilder b;
        const auto d = b.add_driver();
        const auto w = b.add_wire(10.0);
        const auto w2 = b.add_wire(10.0);
        b.connect(d, w);
        b.connect(d, w2);  // w2 drives nothing and is no PO
        b.mark_primary_output(w);
        b.finalize();
      },
      "dangling");
}

TEST(CircuitBuilderDeath, RejectsMissingPrimaryOutput) {
  EXPECT_DEATH(
      {
        netlist::CircuitBuilder b;
        const auto d = b.add_driver();
        const auto w = b.add_wire(10.0);
        const auto g = b.add_gate();
        b.connect(d, w);
        b.connect(w, g);
        b.finalize();  // no primary output declared
      },
      "primary output");
}

TEST(CircuitBuilderDeath, RejectsFaninIntoDriver) {
  EXPECT_DEATH(
      {
        netlist::CircuitBuilder b;
        const auto d = b.add_driver();
        const auto w = b.add_wire(10.0);
        b.connect(w, d);
      },
      "fanin");
}

TEST(CircuitBuilder, BoundsOverride) {
  netlist::CircuitBuilder b;
  const auto d = b.add_driver();
  const auto w = b.add_wire(10.0);
  b.connect(d, w);
  b.mark_primary_output(w);
  b.set_bounds(w, 0.5, 2.0);
  const auto c = b.finalize();
  EXPECT_DOUBLE_EQ(c.lower_bound(b.node_of(w)), 0.5);
  EXPECT_DOUBLE_EQ(c.upper_bound(b.node_of(w)), 2.0);
}

}  // namespace
