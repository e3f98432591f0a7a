// Micro-benchmarks of the O(|V|+|E|) kernels behind the paper's "linear
// runtime per iteration" claim (Figure 10b).
//
//   bench_kernels [--profile NAME] [--min-ms N] [--json FILE]
//
// One row per kernel, ns/op: stage 1's logic simulation and its channel
// similarity matrices, the load, upstream and arrival passes, a full LRS
// solve from the lower bounds, the OGWS dual update A4+A5, the flow
// projection and the noise metric. "lrs_sweep_resolve" times a steady-state
// re-solve (perturb ~1% of μ, re-solve from the fixpoint), the shape of an
// OGWS iteration's LRS call. A last row times one OGWS iteration's analysis
// sequence ("ogws_iteration", the multiplier update excluded) around a solve
// from the lower bounds.
//
// --json writes the machine-readable BENCH_kernels.json (schema
// lrsizer-bench-kernels-v2: git SHA, per-kernel ns) that CI uploads as a
// perf artifact; tools/bench_compare.py diffs two of them and flags >10%
// regressions.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "core/lagrangian.hpp"
#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/channels.hpp"
#include "layout/neighbors.hpp"
#include "netlist/elaborator.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "runtime/json.hpp"
#include "sim/patterns.hpp"
#include "sim/similarity.hpp"
#include "sim/simulator.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"
#include "timing/metrics.hpp"
#include "timing/upstream.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lrsizer;

#ifndef LRSIZER_GIT_SHA
#define LRSIZER_GIT_SHA "unknown"
#endif

struct Args {
  std::string profile = "c7552";  // the largest Table-1 profile
  double min_ms = 50.0;
  std::string json_path;
};

[[noreturn]] void usage_and_exit(int code) {
  std::cerr << "usage: bench_kernels [--profile NAME] [--min-ms N] [--json FILE]\n";
  std::exit(code);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit(1);
      return argv[++i];
    };
    if (arg == "--profile") {
      args.profile = value();
    } else if (arg == "--min-ms") {
      args.min_ms = std::atof(value().c_str());
      if (args.min_ms <= 0.0) usage_and_exit(1);
    } else if (arg == "--json") {
      args.json_path = value();
    } else if (arg == "--help" || arg == "-h") {
      usage_and_exit(0);
    } else {
      std::cerr << "bench_kernels: unknown argument '" << arg << "'\n";
      usage_and_exit(1);
    }
  }
  return args;
}

struct Instance {
  netlist::LogicNetlist logic;
  /// Per routing channel, the nets of its wires (stage 1's WOSS inputs).
  std::vector<std::vector<std::int32_t>> channel_nets;
  netlist::Circuit circuit;
  layout::CouplingSet coupling;
  core::MultiplierState multipliers;
  std::vector<double> mu;
  core::Bounds bounds;
};

Instance make_instance(const std::string& profile) {
  const auto spec = netlist::spec_for_profile(profile, 1);
  auto logic = netlist::generate_circuit(spec);
  auto elab = netlist::elaborate(logic, netlist::TechParams{}, spec.elab);
  const auto channels =
      layout::assign_channels(elab.circuit, elab.net_of_node, logic);
  layout::NeighborOptions nopt;
  nopt.fold_miller = false;
  auto coupling = layout::build_coupling_set(elab.circuit, channels.channels, nopt);
  elab.circuit.set_uniform_size(1.0);
  std::vector<std::vector<std::int32_t>> channel_nets;
  for (const auto& tracks : channels.channels) {
    auto& nets = channel_nets.emplace_back();
    for (netlist::NodeId w : tracks) {
      nets.push_back(elab.net_of_node[static_cast<std::size_t>(w)]);
    }
  }

  const auto bounds =
      core::derive_bounds(elab.circuit, coupling, elab.circuit.sizes(),
                          timing::CouplingLoadMode::kLocalOnly, core::BoundFactors{});

  // Realistic steady-state multipliers: snapshot a short real OGWS run (the
  // iteration-1 transient has ~3x the LRS pass count of steady state, which
  // would skew every per-iteration number).
  core::OgwsOptions warmup;
  warmup.max_iterations = 8;
  warmup.record_history = false;
  core::OgwsControl control;
  control.capture_warm_start = true;
  const auto warm = core::run_ogws(elab.circuit, coupling, bounds, warmup, control);

  core::MultiplierState m(elab.circuit);
  m.init_default(elab.circuit);
  m.lambda = warm.warm.lambda;
  m.beta = warm.warm.beta;
  m.gamma = warm.warm.gamma;
  std::vector<double> mu;
  m.compute_mu(elab.circuit, mu);

  return Instance{std::move(logic), std::move(channel_nets), std::move(elab.circuit),
                  std::move(coupling), std::move(m), std::move(mu), bounds};
}

/// Seconds per call: calibrate a batch size that runs >= min_ms, then take
/// the best of three batches (least-noise estimator).
template <typename Fn>
double seconds_per_op(double min_ms, Fn&& fn) {
  fn();  // warm up caches and lazy allocations
  std::int64_t iters = 1;
  for (;;) {
    util::WallTimer timer;
    for (std::int64_t i = 0; i < iters; ++i) fn();
    const double elapsed = timer.seconds();
    if (elapsed * 1e3 >= min_ms || iters > (std::int64_t{1} << 40)) {
      double best = elapsed / static_cast<double>(iters);
      for (int rep = 1; rep < 3; ++rep) {
        util::WallTimer t2;
        for (std::int64_t i = 0; i < iters; ++i) fn();
        best = std::min(best, t2.seconds() / static_cast<double>(iters));
      }
      return best;
    }
    const double target = min_ms / 1e3;
    iters = std::max(iters * 2,
                     static_cast<std::int64_t>(static_cast<double>(iters) *
                                               (1.2 * target / std::max(elapsed, 1e-9))));
  }
}

struct Row {
  std::string kernel;
  double ns_per_op = 0.0;
};

/// Optimization barrier for benched values (file scope so -Wunused-but-set
/// stays quiet).
volatile double g_bench_sink = 0.0;

const char* git_sha() {
  if (const char* env = std::getenv("LRSIZER_GIT_SHA")) return env;
  if (const char* env = std::getenv("GITHUB_SHA")) return env;
  return LRSIZER_GIT_SHA;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Instance inst = make_instance(args.profile);
  const auto& circuit = inst.circuit;
  const auto mode = timing::CouplingLoadMode::kLocalOnly;

  std::printf("bench_kernels: profile %s — %d nodes, %d edges, %zu pairs (git %s)\n",
              args.profile.c_str(), circuit.num_nodes(), circuit.num_edges(),
              inst.coupling.pairs().size(), git_sha());

  std::vector<Row> rows;
  auto bench = [&](const std::string& kernel, auto&& fn) {
    rows.push_back({kernel, seconds_per_op(args.min_ms, fn) * 1e9});
    return rows.back().ns_per_op;
  };

  // ---- stage 1: logic simulation and the WOSS weight matrices ----
  //
  // What a session's simulate_and_order() computes before ordering: one
  // simulation of the default vector set, then one similarity matrix per
  // routing channel over its wires' nets ("similarity_matrix" is all of
  // them, one op).
  const core::FlowOptions flow_defaults;
  const auto vectors = sim::random_vectors(
      static_cast<std::int32_t>(inst.logic.primary_inputs().size()),
      flow_defaults.num_vectors, flow_defaults.pattern_seed);
  bench("simulate", [&] {
    g_bench_sink = static_cast<double>(
        sim::simulate(inst.logic, vectors, flow_defaults.sim).total_events);
  });
  const sim::SimResult simulated = sim::simulate(inst.logic, vectors, flow_defaults.sim);
  bench("similarity_matrix", [&] {
    double sum = 0.0;
    for (const auto& nets : inst.channel_nets) {
      const sim::SimilarityMatrix matrix(simulated, nets);
      if (matrix.size() > 1) sum += matrix.at(0, 1);
    }
    g_bench_sink = sum;
  });

  // ---- the per-iteration kernels ----

  timing::LoadAnalysis loads;
  bench("loads", [&] {
    timing::compute_loads(circuit, inst.coupling, circuit.sizes(), mode, loads);
  });

  std::vector<double> r_up;
  bench("upstream", [&] {
    timing::compute_weighted_upstream(circuit, circuit.sizes(), inst.mu, r_up);
  });

  timing::compute_loads(circuit, inst.coupling, circuit.sizes(), mode, loads);
  timing::ArrivalAnalysis arrivals;
  bench("arrivals", [&] {
    timing::compute_arrivals(circuit, circuit.sizes(), loads, arrivals);
  });

  // A solve from S1's lower bounds. run_lrs resumes a reused workspace from
  // the x it is handed, so each op hands it L (a copy, not an allocation).
  core::LrsWorkspace lrs_ws;
  const core::LrsOptions lrs_options;
  const double beta = inst.multipliers.beta;
  const core::NoiseMultipliers gamma(inst.multipliers.gamma);
  std::vector<double> x_lower = circuit.sizes();
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    x_lower[static_cast<std::size_t>(v)] = circuit.lower_bound(v);
  }
  std::vector<double> x = x_lower;
  bench("lrs_solve", [&] {
    x = x_lower;
    core::run_lrs(circuit, inst.coupling, inst.mu, beta, gamma, lrs_options, x, lrs_ws);
  });

  // ---- the OGWS dual step A4+A5 ----
  //
  // Each op restores λ/β/γ from the warmup snapshot first: the
  // multiplicative rule compounds, so unrestored repeats would walk the
  // state away from the regime being measured. The restore is an O(|E|)
  // copy timed with every op, a few percent of it; the rest is the per-edge
  // ratios, pow() where a ratio is not exactly 1, and the flow projection.
  // The arrivals/loads computed above (at the uniform start sizes) are the
  // fixed analysis inputs; ρ is the warmup's steady-state step.
  const double area_ref =
      std::max(timing::total_area(circuit, circuit.sizes()), 1e-12);
  const core::DualScales dual_scales{area_ref, area_ref / inst.bounds.delay_s,
                                     area_ref / inst.bounds.cap_f,
                                     area_ref / inst.bounds.noise_f};
  core::OgwsOptions dual_options;
  const double dual_rho = dual_options.step0 / std::sqrt(8.0);
  const double cap_now = timing::total_cap(circuit, circuit.sizes());
  const double noise_now = inst.coupling.noise_linear(circuit.sizes());
  const std::vector<double> lambda0 = inst.multipliers.lambda;
  const double beta0 = inst.multipliers.beta;
  const double gamma0 = inst.multipliers.gamma;
  bench("dual_update", [&] {
    inst.multipliers.lambda = lambda0;
    inst.multipliers.beta = beta0;
    inst.multipliers.gamma = gamma0;
    core::dual_ascent_step(circuit, inst.coupling, inst.bounds, dual_options, arrivals,
                           circuit.sizes(), cap_now, noise_now, dual_rho, dual_scales,
                           inst.multipliers);
  });
  inst.multipliers.lambda = lambda0;
  inst.multipliers.beta = beta0;
  inst.multipliers.gamma = gamma0;

  // ---- steady-state LRS re-solve ----
  //
  // A converged solve whose μ vector is then perturbed a little, as one OGWS
  // dual step does. Each op scales ~1% of the μ entries by ×1.01 —
  // alternating with ÷1.01 so repeats stay bounded — and re-solves on the
  // same workspace from the previous fixpoint, whose loads it reuses.
  {
    std::vector<double> mu_local = inst.mu;
    std::vector<double> x_local = x_lower;
    core::LrsWorkspace ws;
    // Converge once: ops then measure the re-solve, not the first solve.
    core::run_lrs(circuit, inst.coupling, mu_local, beta, gamma, lrs_options, x_local, ws);
    std::int64_t toggle = 0;
    bench("lrs_sweep_resolve", [&] {
      const double f = (toggle++ % 2 == 0) ? 1.01 : 1.0 / 1.01;
      for (std::size_t i = 7; i < mu_local.size(); i += 97) {
        mu_local[i] *= f;
      }
      core::run_lrs(circuit, inst.coupling, mu_local, beta, gamma, lrs_options, x_local,
                    ws);
      g_bench_sink = x_local[x_local.size() / 2];
    });
  }

  // ---- reference kernels (Figure 10b linearity set) ----

  bench("flow_projection", [&] { inst.multipliers.project_flow(circuit); });
  bench("noise_metric",
        [&] { g_bench_sink = inst.coupling.noise_linear(circuit.sizes()); });

  // ---- one OGWS iteration's analysis sequence ----
  //
  // A2, the LRS solve (whose loads arrivals reuse), the arrival pass, the
  // scalar metrics and the dual; the multiplier update A4/A5 is excluded.
  // run_ogws now takes A2 from the previous dual step's walk; the row keeps
  // its compute_mu so that it measures the same work as earlier records.
  const double mu_sink = inst.multipliers.sink_mu(circuit);
  bench("ogws_iteration", [&] {
    inst.multipliers.compute_mu(circuit, inst.mu);  // A2
    x = x_lower;
    core::run_lrs(circuit, inst.coupling, inst.mu, beta, gamma, lrs_options, x,
                  lrs_ws);
    timing::compute_arrivals(circuit, x, lrs_ws.loads, arrivals);
    const double area = timing::total_area(circuit, x);
    const double cap = timing::total_cap(circuit, x);
    const double noise = inst.coupling.noise_linear(x);
    const double dual = core::lagrangian_value(
        circuit, inst.coupling, x, inst.mu, mu_sink, beta, gamma, inst.bounds,
        arrivals, core::LagrangianTerms{area, cap, noise});
    g_bench_sink = dual + area + cap + noise + arrivals.critical_delay;
  });

  // ---- report ----

  util::TextTable table({"kernel", "ns/op"});
  for (const auto& row : rows) {
    table.add_row({row.kernel, util::TextTable::num(row.ns_per_op, 0)});
  }
  table.print(std::cout);

  if (!args.json_path.empty()) {
    runtime::Json j = runtime::Json::object();
    j.set("schema", "lrsizer-bench-kernels-v2");
    j.set("git_sha", git_sha());
    j.set("profile", args.profile);
    j.set("hardware_concurrency",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    j.set("nodes", static_cast<std::int64_t>(circuit.num_nodes()));
    j.set("edges", static_cast<std::int64_t>(circuit.num_edges()));
    j.set("pairs", static_cast<std::int64_t>(inst.coupling.pairs().size()));
    j.set("min_ms", args.min_ms);
    runtime::Json kernels = runtime::Json::array();
    for (const auto& row : rows) {
      runtime::Json entry = runtime::Json::object();
      entry.set("kernel", row.kernel);
      entry.set("ns_per_op", row.ns_per_op);
      kernels.push_back(entry);
    }
    j.set("kernels", kernels);

    std::ofstream out(args.json_path);
    if (!out) {
      std::cerr << "bench_kernels: cannot write '" << args.json_path << "'\n";
      return 1;
    }
    out << j.dump(2) << "\n";
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}
