// Full two-stage flow on a real ISCAS85 netlist.
//
// Parses a `.bench` file (the in-tree c17 by default, or a path given as
// argv[1]), elaborates it into a physical circuit, runs logic simulation +
// WOSS wire ordering, then the OGWS Lagrangian sizing, and prints the
// before/after metrics plus the KKT residual certificate.
//
// Run: build/examples/iscas_flow [path/to/netlist.bench]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <utility>

#include "api/session.hpp"
#include "core/kkt.hpp"
#include "netlist/bench_parser.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lrsizer;

  netlist::LogicNetlist logic;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    try {
      logic = netlist::parse_bench(in);
    } catch (const netlist::BenchParseError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("netlist: %s\n", argv[1]);
  } else {
    logic = netlist::parse_bench_string(netlist::kIscas85C17);
    std::printf("netlist: built-in ISCAS85 c17\n");
  }

  std::printf("  %d gates, %zu inputs, %zu outputs, depth %d\n\n",
              logic.num_real_gates(), logic.primary_inputs().size(),
              logic.primary_outputs().size(), logic.depth());

  core::FlowOptions options;
  options.num_vectors = 64;
  // Small/shallow circuits (like c17) are infeasible under the strict
  // Table 1 factors (noise 0.10x pins wires at the minimum width, where the
  // wire resistance alone busts a 1.00x delay bound); keep a little slack.
  options.bound_factors.delay = 1.15;
  options.bound_factors.noise = 0.12;
  api::SizingSession session(std::move(logic), options);
  if (const api::Status status = session.run_all(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    return 1;
  }
  const core::FlowResult flow = session.take_result();

  std::printf("circuit graph: %d gates + %d wires = %d components, %d edges\n",
              flow.circuit.num_gates(), flow.circuit.num_wires(),
              flow.circuit.num_components(), flow.circuit.num_edges());
  std::printf("stage 1: effective loading %.3f -> %.3f (WOSS), %.1f ms\n",
              flow.ordering_cost_initial, flow.ordering_cost_woss,
              flow.stage1_seconds * 1e3);
  std::printf("stage 2: %s after %d iterations, %.1f ms\n\n",
              flow.ogws.converged ? "converged" : "stopped", flow.ogws.iterations,
              flow.stage2_seconds * 1e3);

  util::TextTable table({"metric", "init", "final"});
  table.add_row({"noise (fF)", util::TextTable::num(flow.init_metrics.noise_f * 1e15),
                 util::TextTable::num(flow.final_metrics.noise_f * 1e15)});
  table.add_row({"delay (ps)", util::TextTable::num(flow.init_metrics.delay_s * 1e12),
                 util::TextTable::num(flow.final_metrics.delay_s * 1e12)});
  table.add_row({"power (mW)", util::TextTable::num(flow.init_metrics.power_w * 1e3),
                 util::TextTable::num(flow.final_metrics.power_w * 1e3)});
  table.add_row({"area (um2)", util::TextTable::num(flow.init_metrics.area_um2),
                 util::TextTable::num(flow.final_metrics.area_um2)});
  table.print(std::cout);

  std::printf("\nmemory: %.2f MB tracked (Table 1 style accounting)\n",
              static_cast<double>(flow.memory_bytes) / (1024.0 * 1024.0));
  return 0;
}
