// Quickstart: size the paper's Figure 1 circuit, then drive the staged
// session API.
//
// Act 1 — three input drivers, three gates, seven wires and one output
// load. We build the circuit graph by hand with CircuitBuilder, declare two
// routing channels so the wires have coupling neighbors, derive bounds from
// the unit-size metrics and run OGWS. Output: a before/after metric table
// plus the per-component sizes.
//
// Act 2 — api::SizingSession on ISCAS85 c17: options checked by
// validate_options, the four pipeline stages run individually, a
// per-iteration progress observer, and a warm-started re-size that skips
// the converged work.
//
// Run: build/examples/quickstart [--jobs N]
// With --jobs, a third act sizes two Table-1 circuits concurrently through
// the batch runtime (runtime/batch) — the same path `lrsizer batch` drives.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "api/options.hpp"
#include "api/session.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/neighbors.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/builder.hpp"
#include "runtime/batch.hpp"
#include "timing/metrics.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lrsizer;

  int batch_jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      batch_jobs = std::atoi(argv[++i]);
    }
  }

  // ---- build the Figure 1 circuit ----------------------------------------
  netlist::TechParams tech;
  netlist::CircuitBuilder builder(tech);

  const auto d1 = builder.add_driver();
  const auto d2 = builder.add_driver();
  const auto d3 = builder.add_driver();

  const auto w1 = builder.add_wire(300.0);
  const auto w2 = builder.add_wire(250.0);
  const auto w3 = builder.add_wire(400.0);
  const auto gate_a = builder.add_gate();
  const auto w4 = builder.add_wire(350.0);
  const auto w5 = builder.add_wire(200.0);
  const auto gate_b = builder.add_gate();
  const auto w6 = builder.add_wire(300.0);
  const auto gate_c = builder.add_gate();
  const auto w7 = builder.add_wire(450.0);

  builder.connect(d1, w1);
  builder.connect(d2, w2);
  builder.connect(d3, w3);
  builder.connect(w1, gate_a);
  builder.connect(w2, gate_a);
  builder.connect(gate_a, w4);
  builder.connect(gate_a, w5);
  builder.connect(w3, gate_b);
  builder.connect(w4, gate_b);
  builder.connect(gate_b, w6);
  builder.connect(w5, gate_c);
  builder.connect(w6, gate_c);
  builder.connect(gate_c, w7);
  builder.mark_primary_output(w7, tech.output_load);

  netlist::Circuit circuit = builder.finalize();

  // ---- coupling: two routing channels -------------------------------------
  // Input wires run side by side, and so do the inter-gate wires.
  const std::vector<std::vector<netlist::NodeId>> channels = {
      {builder.node_of(w1), builder.node_of(w2), builder.node_of(w3)},
      {builder.node_of(w4), builder.node_of(w5), builder.node_of(w6),
       builder.node_of(w7)},
  };
  layout::NeighborOptions neighbor_options;
  neighbor_options.fold_miller = false;  // no simulation in this example
  const layout::CouplingSet coupling =
      layout::build_coupling_set(circuit, channels, neighbor_options);

  // ---- bounds from the unit-size starting point ----------------------------
  circuit.set_uniform_size(1.0);
  const timing::Metrics init =
      timing::compute_metrics(circuit, coupling, circuit.sizes());

  core::BoundFactors factors;  // delay 1.0x, power 0.15x, noise 0.10x
  const core::Bounds bounds =
      core::derive_bounds(circuit, coupling, circuit.sizes(), factors);

  // ---- optimize -------------------------------------------------------------
  const core::OgwsResult sized = core::run_ogws(circuit, coupling, bounds);
  circuit.mutable_sizes() = sized.sizes;
  const timing::Metrics fin = timing::compute_metrics(circuit, coupling, circuit.sizes());

  // ---- report ---------------------------------------------------------------
  std::printf("OGWS: %s after %d iterations (gap %.3f%%, violation %.3f%%)\n\n",
              sized.converged ? "converged" : "stopped", sized.iterations,
              100.0 * sized.rel_gap, 100.0 * sized.max_violation);

  util::TextTable table({"metric", "bound", "init", "final", "impr%"});
  auto impr = [](double a, double b) { return 100.0 * (a - b) / a; };
  table.add_row({"noise (fF)", util::TextTable::num(bounds.noise_f * 1e15),
                 util::TextTable::num(init.noise_f * 1e15),
                 util::TextTable::num(fin.noise_f * 1e15),
                 util::TextTable::num(impr(init.noise_f, fin.noise_f), 1)});
  table.add_row({"delay (ps)", util::TextTable::num(bounds.delay_s * 1e12),
                 util::TextTable::num(init.delay_s * 1e12),
                 util::TextTable::num(fin.delay_s * 1e12),
                 util::TextTable::num(impr(init.delay_s, fin.delay_s), 1)});
  table.add_row({"power (mW)",
                 util::TextTable::num(bounds.cap_f * circuit.tech().power_per_farad() * 1e3),
                 util::TextTable::num(init.power_w * 1e3),
                 util::TextTable::num(fin.power_w * 1e3),
                 util::TextTable::num(impr(init.power_w, fin.power_w), 1)});
  table.add_row({"area (um2)", "-", util::TextTable::num(init.area_um2),
                 util::TextTable::num(fin.area_um2),
                 util::TextTable::num(impr(init.area_um2, fin.area_um2), 1)});
  table.print(std::cout);

  std::printf("\nfinal sizes (um):\n");
  const char* names[] = {"w1", "w2", "w3", "gateA", "w4", "w5",
                         "gateB", "w6", "gateC", "w7"};
  const netlist::CircuitBuilder::Handle handles[] = {w1, w2, w3, gate_a, w4, w5,
                                                     gate_b, w6, gate_c, w7};
  for (std::size_t i = 0; i < std::size(handles); ++i) {
    std::printf("  %-6s %.3f\n", names[i], circuit.size(builder.node_of(handles[i])));
  }

  // ---- act 2: the staged session API on ISCAS85 c17 -------------------------
  {
    std::printf("\nsession demo: staged sizing of ISCAS85 c17\n");

    // Plain fields, checked up front (every stage checks them again). c17
    // is so shallow that the Table-1 factors are infeasible; these are the
    // feasible ones.
    core::FlowOptions options;
    options.num_vectors = 16;
    options.bound_factors.delay = 1.15;
    options.bound_factors.noise = 0.12;
    std::printf("  options: %s\n", api::validate_options(options).to_string().c_str());

    api::SizingSession session(netlist::parse_bench_string(netlist::kIscas85C17),
                               options);
    int iterations_seen = 0;
    session.set_observer([&](const core::OgwsIterate&) { ++iterations_seen; });

    // The same pipeline run_all() chains, one stage at a time — a server
    // or notebook can checkpoint, report or abort between stages.
    std::printf("  elaborate:          %s\n", session.elaborate().to_string().c_str());
    std::printf("  simulate_and_order: %s\n",
                session.simulate_and_order().to_string().c_str());
    std::printf("  derive_bounds:      %s\n",
                session.derive_bounds().to_string().c_str());
    std::printf("  size:               %s\n", session.size().to_string().c_str());

    const core::FlowSummary s = session.summary();
    std::printf("  %s after %d iterations (observer saw %d), area %.1f um2\n",
                s.converged ? "converged" : "stopped", s.iterations,
                iterations_seen, s.final_metrics.area_um2);

    // Warm start: a new session seeded with this result re-converges almost
    // immediately under identical options.
    api::SizingSession rerun(netlist::parse_bench_string(netlist::kIscas85C17),
                             options);
    (void)rerun.warm_start_from(session.result());
    if (rerun.run_all().ok()) {
      std::printf("  warm-started re-size: %d iteration(s) to re-converge\n",
                  rerun.summary().iterations);
    }
  }

  // ---- optional third act: batch two circuits in parallel -------------------
  if (batch_jobs > 0) {
    std::printf("\nbatch demo (--jobs %d): sizing c432 and c499 concurrently\n",
                batch_jobs);
    std::vector<runtime::BatchJob> jobs;
    jobs.push_back(runtime::make_profile_job("c432"));
    jobs.push_back(runtime::make_profile_job("c499"));
    runtime::BatchOptions batch_options;
    batch_options.jobs = batch_jobs;
    const runtime::BatchResult batch =
        runtime::run_batch(std::move(jobs), batch_options);
    for (const auto& job : batch.jobs) {
      if (!job.ok) {
        std::printf("  %s FAILED: %s\n", job.name.c_str(), job.error.c_str());
        continue;
      }
      std::printf("  %-5s %d iterations, final area %.0f um2, %.2f s\n",
                  job.name.c_str(), job.summary.iterations,
                  job.summary.final_metrics.area_um2, job.seconds);
    }
    std::printf("  wall %.2f s on %d worker(s), results identical at any -j\n",
                batch.wall_seconds, batch.num_workers);
  }

  std::printf("\nnext: the CLI drives this at scale — try\n"
              "  build/tools/lrsizer batch --profiles all --jobs 8\n"
              "  build/tools/lrsizer --help\n");
  return 0;
}
