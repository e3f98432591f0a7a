// Shared fixtures for the test suite: small hand-built circuits with known
// structure, used across the timing/core tests, the one-call flow run, and
// a job report without its wall-clock fields.
#pragma once

#include <stdexcept>
#include <vector>

#include "api/session.hpp"
#include "layout/neighbors.hpp"
#include "netlist/builder.hpp"
#include "netlist/circuit.hpp"
#include "runtime/batch.hpp"
#include "runtime/json.hpp"

namespace lrsizer::test_support {

/// Size `logic` through api::SizingSession::run_all. A non-OK Status throws,
/// which fails the calling test with the session's message.
inline core::FlowResult run_flow(const netlist::LogicNetlist& logic,
                                 const core::FlowOptions& options = core::FlowOptions{}) {
  api::SizingSession session(logic, options);
  if (const api::Status status = session.run_all(); !status.ok()) {
    throw std::runtime_error("run_flow: " + status.to_string());
  }
  return session.take_result();
}

/// runtime::job_json with its wall-clock fields zeroed: what two runs of
/// the same job must agree on bit for bit.
inline runtime::Json untimed_job_json(const runtime::JobOutcome& outcome) {
  runtime::Json job = runtime::job_json(outcome);
  for (const char* key : {"stage1_seconds", "stage2_seconds", "seconds"}) {
    job.set(key, 0.0);
  }
  return job;
}

/// driver -> wire -> gate -> wire(PO). The smallest end-to-end chain:
/// exercises every node kind once.
struct ChainCircuit {
  netlist::Circuit circuit;
  netlist::NodeId driver, wire_in, gate, wire_out;

  static ChainCircuit make(const netlist::TechParams& tech = netlist::TechParams{}) {
    netlist::CircuitBuilder b(tech);
    const auto d = b.add_driver();
    const auto w1 = b.add_wire(200.0);
    const auto g = b.add_gate();
    const auto w2 = b.add_wire(300.0);
    b.connect(d, w1);
    b.connect(w1, g);
    b.connect(g, w2);
    b.mark_primary_output(w2);
    ChainCircuit c{b.finalize(), 0, 0, 0, 0};
    c.driver = b.node_of(d);
    c.wire_in = b.node_of(w1);
    c.gate = b.node_of(g);
    c.wire_out = b.node_of(w2);
    return c;
  }
};

/// The paper's Figure 1 circuit: 3 drivers, 3 gates, 7 wires, 1 load.
struct Fig1Circuit {
  netlist::Circuit circuit;
  std::vector<netlist::NodeId> drivers;  // d1..d3
  std::vector<netlist::NodeId> wires;    // w1..w7
  std::vector<netlist::NodeId> gates;    // gA..gC

  static Fig1Circuit make(const netlist::TechParams& tech = netlist::TechParams{}) {
    netlist::CircuitBuilder b(tech);
    const auto d1 = b.add_driver();
    const auto d2 = b.add_driver();
    const auto d3 = b.add_driver();
    const auto w1 = b.add_wire(300.0);
    const auto w2 = b.add_wire(250.0);
    const auto w3 = b.add_wire(400.0);
    const auto ga = b.add_gate();
    const auto w4 = b.add_wire(350.0);
    const auto w5 = b.add_wire(200.0);
    const auto gb = b.add_gate();
    const auto w6 = b.add_wire(300.0);
    const auto gc = b.add_gate();
    const auto w7 = b.add_wire(450.0);
    b.connect(d1, w1);
    b.connect(d2, w2);
    b.connect(d3, w3);
    b.connect(w1, ga);
    b.connect(w2, ga);
    b.connect(ga, w4);
    b.connect(ga, w5);
    b.connect(w3, gb);
    b.connect(w4, gb);
    b.connect(gb, w6);
    b.connect(w5, gc);
    b.connect(w6, gc);
    b.connect(gc, w7);
    b.mark_primary_output(w7);

    Fig1Circuit c{b.finalize(), {}, {}, {}};
    c.drivers = {b.node_of(d1), b.node_of(d2), b.node_of(d3)};
    c.wires = {b.node_of(w1), b.node_of(w2), b.node_of(w3), b.node_of(w4),
               b.node_of(w5), b.node_of(w6), b.node_of(w7)};
    c.gates = {b.node_of(ga), b.node_of(gb), b.node_of(gc)};
    return c;
  }

  /// Two channels like examples/quickstart: {w1,w2,w3} and {w4..w7}.
  layout::CouplingSet make_coupling(const layout::NeighborOptions& options =
                                        layout::NeighborOptions{}) const {
    const std::vector<std::vector<netlist::NodeId>> channels = {
        {wires[0], wires[1], wires[2]},
        {wires[3], wires[4], wires[5], wires[6]},
    };
    layout::NeighborOptions opt = options;
    opt.fold_miller = false;
    return layout::build_coupling_set(circuit, channels, opt);
  }
};

/// Empty coupling set (no adjacent wires) for a circuit.
inline layout::CouplingSet no_coupling(const netlist::Circuit& circuit) {
  return layout::CouplingSet(circuit.num_nodes(), {});
}

}  // namespace lrsizer::test_support
