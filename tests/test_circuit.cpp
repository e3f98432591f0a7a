// Circuit graph + builder invariants (paper §2.1 index contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/circuit.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

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

/// What a CircuitBuilder was given, recorded alongside the calls.
struct BuilderInputs {
  std::vector<netlist::NodeKind> kinds;  ///< per handle
  std::vector<std::pair<netlist::CircuitBuilder::Handle, netlist::CircuitBuilder::Handle>>
      connections;                       ///< in connect() order
  std::vector<bool> primary_output;      ///< per handle
};

/// finalize's numbering and adjacency as the 0.18 build derived them: a
/// fanout vector per handle, a std::queue Kahn sort seeded with the drivers
/// in handle order, and one sort of the whole (from, to) edge list.
struct ReferenceGraph {
  std::vector<netlist::NodeId> node_of;  ///< per handle
  std::vector<std::pair<netlist::NodeId, netlist::NodeId>> edges;  ///< by EdgeId
  std::vector<std::vector<netlist::NodeId>> outputs, inputs;       ///< per node
  std::vector<std::vector<netlist::EdgeId>> output_edges, input_edges;
};

ReferenceGraph reference_finalize(const BuilderInputs& in) {
  using Handle = netlist::CircuitBuilder::Handle;
  const std::size_t handles = in.kinds.size();
  std::vector<std::vector<Handle>> fanout(handles);
  std::vector<int> fanin(handles, 0);
  for (const auto& [from, to] : in.connections) {
    fanout[static_cast<std::size_t>(from)].push_back(to);
    ++fanin[static_cast<std::size_t>(to)];
  }
  std::queue<Handle> ready;
  netlist::NodeId drivers = 0;
  for (std::size_t h = 0; h < handles; ++h) {
    if (in.kinds[h] == netlist::NodeKind::kDriver) {
      ready.push(static_cast<Handle>(h));
      ++drivers;
    }
  }
  std::vector<Handle> order;
  while (!ready.empty()) {
    const Handle h = ready.front();
    ready.pop();
    order.push_back(h);
    for (Handle succ : fanout[static_cast<std::size_t>(h)]) {
      if (--fanin[static_cast<std::size_t>(succ)] == 0) ready.push(succ);
    }
  }
  ReferenceGraph g;
  g.node_of.assign(handles, netlist::kInvalidNode);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    g.node_of[static_cast<std::size_t>(order[pos])] = static_cast<netlist::NodeId>(pos) + 1;
  }
  const auto nodes = static_cast<netlist::NodeId>(handles) + 2;
  for (netlist::NodeId v = 1; v <= drivers; ++v) g.edges.emplace_back(0, v);
  for (const auto& [from, to] : in.connections) {
    g.edges.emplace_back(g.node_of[static_cast<std::size_t>(from)],
                         g.node_of[static_cast<std::size_t>(to)]);
  }
  for (std::size_t h = 0; h < handles; ++h) {
    if (in.primary_output[h]) g.edges.emplace_back(g.node_of[h], nodes - 1);
  }
  std::sort(g.edges.begin(), g.edges.end());
  g.outputs.resize(static_cast<std::size_t>(nodes));
  g.inputs.resize(static_cast<std::size_t>(nodes));
  g.output_edges.resize(static_cast<std::size_t>(nodes));
  g.input_edges.resize(static_cast<std::size_t>(nodes));
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto [from, to] = g.edges[e];
    g.outputs[static_cast<std::size_t>(from)].push_back(to);
    g.output_edges[static_cast<std::size_t>(from)].push_back(static_cast<netlist::EdgeId>(e));
    g.inputs[static_cast<std::size_t>(to)].push_back(from);
    g.input_edges[static_cast<std::size_t>(to)].push_back(static_cast<netlist::EdgeId>(e));
  }
  return g;
}

template <class T>
void shuffle(std::vector<T>& values, util::Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[static_cast<std::size_t>(rng.next_below(i))]);
  }
}

TEST(CircuitBuilder, FinalizeMatchesAWholeListSortOnSeededCircuits) {
  // Seeded random DAGs, inserted in shuffled order, with duplicate
  // connections and many primary outputs: finalize must number the handles
  // and lay out every edge and CSR row exactly as the whole-list reference.
  using Handle = netlist::CircuitBuilder::Handle;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const int count = rng.uniform_int(40, 240);
    const int drivers = rng.uniform_int(1, 12);
    // Hidden topological rank r of each handle; ranks below `drivers` are
    // the drivers. Handles are inserted in a shuffled rank order.
    std::vector<int> rank_of_handle(static_cast<std::size_t>(count));
    std::iota(rank_of_handle.begin(), rank_of_handle.end(), 0);
    shuffle(rank_of_handle, rng);
    netlist::CircuitBuilder b;
    BuilderInputs in;
    std::vector<Handle> handle_of_rank(static_cast<std::size_t>(count));
    for (const int r : rank_of_handle) {
      netlist::NodeKind kind = netlist::NodeKind::kDriver;
      Handle h = 0;
      if (r < drivers) {
        h = b.add_driver();
      } else if (rng.bernoulli(0.5)) {
        kind = netlist::NodeKind::kGate;
        h = b.add_gate();
      } else {
        kind = netlist::NodeKind::kWire;
        h = b.add_wire(rng.uniform(10.0, 500.0));
      }
      in.kinds.push_back(kind);
      handle_of_rank[static_cast<std::size_t>(r)] = h;
    }

    // Each component takes 1-3 fanins of lower rank, one connection in
    // eight twice; a driver nothing reads drives a random component.
    std::vector<bool> drives(static_cast<std::size_t>(count), false);
    std::vector<std::pair<int, int>> rank_edges;
    for (int r = drivers; r < count; ++r) {
      for (int k = rng.uniform_int(1, 3); k > 0; --k) {
        const int from = rng.uniform_int(0, r - 1);
        rank_edges.emplace_back(from, r);
        if (rng.bernoulli(0.125)) rank_edges.emplace_back(from, r);
        drives[static_cast<std::size_t>(from)] = true;
      }
    }
    for (int r = 0; r < drivers; ++r) {
      if (!drives[static_cast<std::size_t>(r)]) {
        rank_edges.emplace_back(r, rng.uniform_int(drivers, count - 1));
      }
    }
    shuffle(rank_edges, rng);
    for (const auto& [from, to] : rank_edges) {
      const Handle hf = handle_of_rank[static_cast<std::size_t>(from)];
      const Handle ht = handle_of_rank[static_cast<std::size_t>(to)];
      b.connect(hf, ht);
      in.connections.emplace_back(hf, ht);
    }

    // Every component that drives nothing is a primary output, and a third
    // of the others too (some marked twice).
    in.primary_output.assign(static_cast<std::size_t>(count), false);
    int primary_outputs = 0;
    for (int r = drivers; r < count; ++r) {
      const bool leaf = !drives[static_cast<std::size_t>(r)];
      if (!leaf && !rng.bernoulli(0.33)) continue;
      const Handle h = handle_of_rank[static_cast<std::size_t>(r)];
      b.mark_primary_output(h);
      if (rng.bernoulli(0.1)) b.mark_primary_output(h);
      in.primary_output[static_cast<std::size_t>(h)] = true;
      ++primary_outputs;
    }
    EXPECT_GE(primary_outputs, 10);
    EXPECT_GT(rank_edges.size(), static_cast<std::size_t>(count - drivers));

    const netlist::Circuit c = b.finalize();
    const ReferenceGraph want = reference_finalize(in);
    for (Handle h = 0; h < count; ++h) {
      ASSERT_EQ(b.node_of(h), want.node_of[static_cast<std::size_t>(h)]) << "handle " << h;
    }
    ASSERT_EQ(c.num_edges(), static_cast<netlist::EdgeId>(want.edges.size()));
    for (netlist::EdgeId e = 0; e < c.num_edges(); ++e) {
      const auto& [from, to] = want.edges[static_cast<std::size_t>(e)];
      ASSERT_EQ(c.edge_from(e), from) << "edge " << e;
      ASSERT_EQ(c.edge_to(e), to) << "edge " << e;
    }
    auto row = [](auto span) { return std::vector<std::int32_t>(span.begin(), span.end()); };
    for (netlist::NodeId v = 0; v < c.num_nodes(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      EXPECT_EQ(row(c.outputs(v)), want.outputs[i]) << "node " << v;
      EXPECT_EQ(row(c.output_edges(v)), want.output_edges[i]) << "node " << v;
      EXPECT_EQ(row(c.inputs(v)), want.inputs[i]) << "node " << v;
      EXPECT_EQ(row(c.input_edges(v)), want.input_edges[i]) << "node " << v;
    }
  }
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
