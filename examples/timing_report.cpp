// Timing report: STA-style view of a sized circuit.
//
// Runs the two-stage flow on a generated circuit, then prints
//   * the critical path with per-node delays and arrivals,
//   * the most critical components by slack,
//   * the worst coupling victims (per-net noise), and
//   * optionally dumps the simulation waveforms as a VCD file (argv[1]).
//
// Run: build/examples/timing_report [out.vcd]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "api/session.hpp"
#include "netlist/generator.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"
#include "timing/arrival.hpp"
#include "timing/paths.hpp"
#include "timing/slack.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lrsizer;

  netlist::GeneratorSpec spec;
  spec.num_gates = 150;
  spec.num_wires = 320;
  spec.num_inputs = 16;
  spec.num_outputs = 10;
  spec.depth = 12;
  spec.seed = 21;
  const auto logic = netlist::generate_circuit(spec);

  api::SizingSession session(logic, core::FlowOptions{});
  if (const api::Status status = session.run_all(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    return 1;
  }
  const core::FlowResult flow = session.take_result();
  const auto& circuit = flow.circuit;

  // Re-run the analyses at the final sizes.
  timing::LoadAnalysis loads;
  timing::compute_loads(circuit, flow.coupling, circuit.sizes(), loads);
  timing::ArrivalAnalysis arrivals;
  timing::compute_arrivals(circuit, circuit.sizes(), loads, arrivals);
  timing::SlackAnalysis slacks;
  timing::compute_slacks(circuit, arrivals, flow.bounds.delay_s, slacks);

  std::printf("critical delay %.1f ps against bound %.1f ps (worst slack %.2f ps)\n\n",
              arrivals.critical_delay * 1e12, flow.bounds.delay_s * 1e12,
              slacks.worst_slack * 1e12);

  auto kind_name = [&](netlist::NodeId v) {
    if (circuit.is_gate(v)) return "gate";
    if (circuit.is_wire(v)) return "wire";
    if (circuit.is_driver(v)) return "driver";
    return "?";
  };

  std::printf("critical path (%zu nodes):\n",
              timing::critical_path(circuit, arrivals).size());
  util::TextTable path_table({"node", "kind", "size(um)", "D(ps)", "a(ps)", "slack(ps)"});
  for (netlist::NodeId v : timing::critical_path(circuit, arrivals)) {
    const auto i = static_cast<std::size_t>(v);
    path_table.add_row({util::TextTable::integer(v), kind_name(v),
                        util::TextTable::num(circuit.size(v), 3),
                        util::TextTable::num(arrivals.delay[i] * 1e12, 2),
                        util::TextTable::num(arrivals.arrival[i] * 1e12, 1),
                        util::TextTable::num(slacks.slack[i] * 1e12, 2)});
  }
  path_table.print(std::cout);

  std::printf("\nthree longest paths (top-K enumeration):\n");
  util::TextTable topk_table({"rank", "delay(ps)", "nodes"});
  const auto paths = timing::top_k_paths(circuit, arrivals, 3);
  for (std::size_t r = 0; r < paths.size(); ++r) {
    topk_table.add_row({util::TextTable::integer(static_cast<long long>(r + 1)),
                        util::TextTable::num(paths[r].delay_s * 1e12, 1),
                        util::TextTable::integer(
                            static_cast<long long>(paths[r].nodes.size()))});
  }
  topk_table.print(std::cout);

  std::printf("\nten most critical components by slack:\n");
  util::TextTable crit_table({"node", "kind", "slack(ps)"});
  int shown = 0;
  for (netlist::NodeId v : timing::nodes_by_criticality(circuit, slacks)) {
    if (!circuit.is_sized(v)) continue;
    crit_table.add_row({util::TextTable::integer(v), kind_name(v),
                        util::TextTable::num(slacks.slack[static_cast<std::size_t>(v)] *
                                                 1e12,
                                             2)});
    if (++shown == 10) break;
  }
  crit_table.print(std::cout);

  std::printf("\nworst coupling victims (per-net noise, final sizes):\n");
  struct Victim {
    netlist::NodeId node;
    double noise;
  };
  std::vector<Victim> victims;
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    if (!circuit.is_wire(v) || flow.coupling.owned_pairs(v).empty()) continue;
    victims.push_back({v, flow.coupling.owned_noise_linear(v, circuit.sizes())});
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.noise > b.noise; });
  util::TextTable noise_table({"wire", "owned pairs", "noise(fF)"});
  for (std::size_t k = 0; k < victims.size() && k < 10; ++k) {
    noise_table.add_row(
        {util::TextTable::integer(victims[k].node),
         util::TextTable::integer(
             static_cast<long long>(flow.coupling.owned_pairs(victims[k].node).size())),
         util::TextTable::num(victims[k].noise * 1e15, 2)});
  }
  noise_table.print(std::cout);

  if (argc > 1) {
    const auto vectors = sim::random_vectors(spec.num_inputs, 32, 7);
    const auto sim_result = sim::simulate(logic, vectors);
    std::ofstream vcd(argv[1]);
    sim::write_vcd(logic, sim_result, vcd);
    std::printf("\nwaveforms written to %s\n", argv[1]);
  }
  return 0;
}
