// Constraint sweep: the area cost of tightening each bound.
//
// Generates a mid-size synthetic circuit and sweeps (a) the delay bound and
// (b) the noise bound, printing the optimized area at each point. This is
// the classic area-delay / area-noise tradeoff curve the LR formulation
// makes cheap to explore: only the bounds change, the machinery is reused.
//
// Run: build/examples/constraint_sweep
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "api/session.hpp"
#include "netlist/generator.hpp"
#include "util/table.hpp"

namespace {

/// One full sizing run; exits with the session's message if it fails.
lrsizer::core::FlowResult size(const lrsizer::netlist::LogicNetlist& logic,
                               const lrsizer::core::FlowOptions& options) {
  lrsizer::api::SizingSession session(logic, options);
  if (const lrsizer::api::Status status = session.run_all(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    std::exit(1);
  }
  return session.take_result();
}

}  // namespace

int main() {
  using namespace lrsizer;

  netlist::GeneratorSpec spec;
  spec.num_gates = 200;
  spec.num_wires = 400;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.depth = 14;
  spec.seed = 42;
  const netlist::LogicNetlist logic = netlist::generate_circuit(spec);

  std::printf("circuit: %d gates, target %d wires (seed %llu)\n\n", spec.num_gates,
              spec.num_wires, static_cast<unsigned long long>(spec.seed));

  // --- sweep the delay bound at fixed noise/power factors -------------------
  util::TextTable delay_table(
      {"delay factor", "area (um2)", "delay (ps)", "noise (fF)", "iters"});
  for (const double f : {0.80, 0.90, 1.00, 1.10, 1.25, 1.50}) {
    core::FlowOptions options;
    options.bound_factors.delay = f;
    const core::FlowResult flow = size(logic, options);
    delay_table.add_row({util::TextTable::num(f),
                         util::TextTable::num(flow.final_metrics.area_um2, 0),
                         util::TextTable::num(flow.final_metrics.delay_s * 1e12, 1),
                         util::TextTable::num(flow.final_metrics.noise_f * 1e15, 1),
                         util::TextTable::integer(flow.ogws.iterations)});
  }
  std::printf("area vs delay bound (noise 0.10x, power 0.15x):\n");
  delay_table.print(std::cout);

  // --- sweep the noise bound --------------------------------------------------
  util::TextTable noise_table(
      {"noise factor", "area (um2)", "delay (ps)", "noise (fF)", "iters"});
  for (const double f : {0.05, 0.10, 0.20, 0.40, 0.80}) {
    core::FlowOptions options;
    options.bound_factors.noise = f;
    const core::FlowResult flow = size(logic, options);
    noise_table.add_row({util::TextTable::num(f),
                         util::TextTable::num(flow.final_metrics.area_um2, 0),
                         util::TextTable::num(flow.final_metrics.delay_s * 1e12, 1),
                         util::TextTable::num(flow.final_metrics.noise_f * 1e15, 1),
                         util::TextTable::integer(flow.ogws.iterations)});
  }
  std::printf("\narea vs noise bound (delay 1.00x, power 0.15x):\n");
  noise_table.print(std::cout);
  return 0;
}
