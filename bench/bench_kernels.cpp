// Micro-benchmarks of the O(|V|+|E|) kernels behind the paper's "linear
// runtime per iteration" claim (Figure 10b), extended with the
// level-parallel variants.
//
//   bench_kernels [--profile NAME] [--threads CSV] [--min-ms N] [--json FILE]
//
// For each kernel (load pass, upstream pass, arrival pass, full LRS solve,
// OGWS dual update A4+A5) the harness times threads = 1 plus every entry of
// --threads (default 1,2,4) on a runtime::KernelTeam, reporting ns/op and
// the speedup against the serial pass. Two serial rows compare the LRS
// sweep modes on a steady-state re-solve (perturb ~1% of μ, re-solve from
// the fixpoint): "lrs_sweep_dense" vs "lrs_sweep_worklist", the worklist
// row's speedup column anchored to dense. A last serial row times one OGWS
// iteration's analysis sequence ("ogws_iteration", the multiplier update
// excluded). Every row that runs LRS names its sweep mode explicitly, so a
// change of the library default leaves the rows' meaning alone: lrs_solve
// and ogws_iteration time the dense Figure-8 sweep.
//
// --json writes the machine-readable BENCH_kernels.json (schema
// lrsizer-bench-kernels-v1: git SHA, per-kernel ns, speedups) that CI
// uploads as a perf artifact; tools/bench_compare.py diffs two of them and
// flags >10% regressions.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lagrangian.hpp"
#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/channels.hpp"
#include "layout/coloring.hpp"
#include "layout/neighbors.hpp"
#include "netlist/elaborator.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "runtime/json.hpp"
#include "runtime/pool.hpp"
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
  std::vector<int> threads = {1, 2, 4};
  double min_ms = 50.0;
  std::string json_path;
};

[[noreturn]] void usage_and_exit(int code) {
  std::cerr << "usage: bench_kernels [--profile NAME] [--threads CSV] "
               "[--min-ms N] [--json FILE]\n";
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
    } else if (arg == "--threads") {
      args.threads.clear();
      std::stringstream ss(value());
      std::string part;
      while (std::getline(ss, part, ',')) {
        const int t = std::atoi(part.c_str());
        if (t < 1) usage_and_exit(1);
        args.threads.push_back(t);
      }
      if (args.threads.empty()) usage_and_exit(1);
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
  netlist::Circuit circuit;
  layout::CouplingSet coupling;
  netlist::LevelSchedule colors;
  core::MultiplierState multipliers;
  std::vector<double> mu;
  core::Bounds bounds;
};

Instance make_instance(const std::string& profile) {
  const auto spec = netlist::spec_for_profile(profile, 1);
  const auto logic = netlist::generate_circuit(spec);
  auto elab = netlist::elaborate(logic, netlist::TechParams{}, spec.elab);
  const auto channels =
      layout::assign_channels(elab.circuit, elab.net_of_node, logic);
  layout::NeighborOptions nopt;
  nopt.fold_miller = false;
  auto coupling = layout::build_coupling_set(elab.circuit, channels.channels, nopt);
  elab.circuit.set_uniform_size(1.0);

  const auto bounds =
      core::derive_bounds(elab.circuit, coupling, elab.circuit.sizes(),
                          timing::CouplingLoadMode::kLocalOnly, core::BoundFactors{});

  // Realistic steady-state multipliers: snapshot a short real OGWS run (the
  // iteration-1 transient has ~3x the LRS pass count of steady state, which
  // would skew every per-iteration number).
  core::OgwsOptions warmup;
  warmup.max_iterations = 8;
  warmup.record_history = false;
  warmup.lrs.sweep = core::SweepMode::kDense;  // the snapshot every row starts from
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

  auto colors = layout::build_coupling_colors(elab.circuit, coupling);
  return Instance{std::move(elab.circuit), std::move(coupling), std::move(colors),
                  std::move(m),            std::move(mu),       bounds};
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
  int threads = 1;
  double ns_per_op = 0.0;
  double speedup_vs_serial = 1.0;
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

  // Teams are built once per thread count and reused across kernels so the
  // timings exclude thread start-up. The serial run always goes first — it
  // anchors every speedup_vs_serial ratio.
  std::vector<int> thread_counts = {1};
  for (const int t : args.threads) {
    if (std::find(thread_counts.begin(), thread_counts.end(), t) ==
        thread_counts.end()) {
      thread_counts.push_back(t);
    }
  }
  std::vector<std::unique_ptr<runtime::KernelTeam>> teams;
  for (const int t : thread_counts) {
    teams.push_back(t > 1 ? std::make_unique<runtime::KernelTeam>(t) : nullptr);
  }

  std::vector<Row> rows;
  auto bench_threaded = [&](const std::string& kernel, auto&& make_fn) {
    double serial_ns = 0.0;
    for (std::size_t k = 0; k < thread_counts.size(); ++k) {
      util::Executor* exec = teams[k] != nullptr ? teams[k].get() : nullptr;
      const double ns = seconds_per_op(args.min_ms, make_fn(exec)) * 1e9;
      if (thread_counts[k] == 1) serial_ns = ns;
      rows.push_back({kernel, thread_counts[k], ns,
                      serial_ns > 0.0 && ns > 0.0 ? serial_ns / ns : 1.0});
    }
  };

  // ---- the per-iteration kernels, serial + level-parallel ----

  timing::LoadAnalysis loads;
  bench_threaded("loads", [&](util::Executor* exec) {
    return [&, exec] {
      timing::compute_loads(circuit, inst.coupling, circuit.sizes(), mode, loads,
                            exec);
    };
  });

  std::vector<double> r_up;
  bench_threaded("upstream", [&](util::Executor* exec) {
    return [&, exec] {
      timing::compute_weighted_upstream(circuit, circuit.sizes(), inst.mu, r_up,
                                        exec);
    };
  });

  timing::compute_loads(circuit, inst.coupling, circuit.sizes(), mode, loads);
  timing::ArrivalAnalysis arrivals;
  bench_threaded("arrivals", [&](util::Executor* exec) {
    return [&, exec] {
      timing::compute_arrivals(circuit, circuit.sizes(), loads, arrivals, exec);
    };
  });

  core::LrsWorkspace lrs_ws;
  core::LrsOptions lrs_options;
  lrs_options.sweep = core::SweepMode::kDense;
  const double beta = inst.multipliers.beta;
  const core::NoiseMultipliers gamma(inst.multipliers.gamma);
  std::vector<double> x = circuit.sizes();
  bench_threaded("lrs_solve", [&](util::Executor* exec) {
    const core::LrsRuntime runtime{exec, &inst.colors};
    return [&, runtime] {
      core::run_lrs(circuit, inst.coupling, inst.mu, beta, gamma, lrs_options, x,
                    lrs_ws, runtime);
    };
  });

  // ---- the OGWS dual step A4+A5, serial + level-parallel ----
  //
  // Each op restores λ/β/γ from the warmup snapshot first: the
  // multiplicative rule compounds, so unrestored repeats would walk the
  // state away from the regime being measured. The restore is an O(|E|)
  // copy, noise next to the pow()-heavy update itself. The arrivals/loads
  // computed above (at the uniform start sizes) are the fixed analysis
  // inputs; ρ is the warmup's steady-state step.
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
  bench_threaded("dual_update", [&](util::Executor* exec) {
    return [&, exec] {
      inst.multipliers.lambda = lambda0;
      inst.multipliers.beta = beta0;
      inst.multipliers.gamma = gamma0;
      core::dual_ascent_step(circuit, inst.coupling, inst.bounds, dual_options,
                             arrivals, circuit.sizes(), cap_now, noise_now,
                             dual_rho, dual_scales, inst.multipliers, exec);
    };
  });
  inst.multipliers.lambda = lambda0;
  inst.multipliers.beta = beta0;
  inst.multipliers.gamma = gamma0;

  // ---- worklist vs dense LRS sweeps (steady-state re-solve) ----
  //
  // The scenario worklist mode exists for: a converged solve whose μ vector
  // is then perturbed a little, as one OGWS dual step does. Each op scales
  // ~1% of the μ entries by ×1.01 — alternating with ÷1.01 so repeats stay
  // bounded — and re-solves from the previous fixpoint. Dense warm-starts
  // but still prices every component each pass; worklist re-processes only
  // the seeded frontier. The worklist row's speedup column is
  // dense_ns / worklist_ns (both rows are serial).
  auto bench_sweep = [&](core::SweepMode sweep_mode) {
    core::LrsOptions opts;
    opts.warm_start = true;
    opts.sweep = sweep_mode;
    std::vector<double> mu_local = inst.mu;
    std::vector<double> x_local = circuit.sizes();
    core::LrsWorkspace ws;
    core::LrsOptions cold = opts;  // converge once: ops then measure the
    cold.warm_start = false;       // incremental regime, not the first solve
    core::run_lrs(circuit, inst.coupling, mu_local, beta, gamma, cold, x_local,
                  ws);
    std::int64_t toggle = 0;
    return seconds_per_op(args.min_ms, [&] {
             const double f = (toggle++ % 2 == 0) ? 1.01 : 1.0 / 1.01;
             for (std::size_t i = 7; i < mu_local.size(); i += 97) {
               mu_local[i] *= f;
             }
             core::run_lrs(circuit, inst.coupling, mu_local, beta, gamma, opts,
                           x_local, ws);
             g_bench_sink = x_local[x_local.size() / 2];
           }) *
           1e9;
  };
  const double dense_sweep_ns = bench_sweep(core::SweepMode::kDense);
  const double worklist_sweep_ns = bench_sweep(core::SweepMode::kWorklist);
  rows.push_back({"lrs_sweep_dense", 1, dense_sweep_ns, 1.0});
  rows.push_back({"lrs_sweep_worklist", 1, worklist_sweep_ns,
                  worklist_sweep_ns > 0.0 ? dense_sweep_ns / worklist_sweep_ns
                                          : 1.0});

  // ---- serial-only reference kernels (Figure 10b linearity set) ----

  rows.push_back({"flow_projection", 1,
                  seconds_per_op(args.min_ms,
                                 [&] { inst.multipliers.project_flow(circuit); }) *
                      1e9,
                  1.0});
  rows.push_back(
      {"noise_metric", 1,
       seconds_per_op(args.min_ms,
                      [&] {
                        g_bench_sink = inst.coupling.noise_linear(circuit.sizes());
                      }) *
           1e9,
       1.0});

  // ---- one OGWS iteration's analysis sequence ----
  //
  // A2, the LRS solve (whose loads arrivals reuse), the arrival pass, the
  // scalar metrics and the dual; the multiplier update A4/A5 is excluded.
  const double mu_sink = inst.multipliers.sink_mu(circuit);
  auto ogws_iteration = [&] {
    inst.multipliers.compute_mu(circuit, inst.mu);  // A2
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
  };
  rows.push_back(
      {"ogws_iteration", 1, seconds_per_op(args.min_ms, ogws_iteration) * 1e9, 1.0});

  // ---- report ----

  util::TextTable table({"kernel", "threads", "ns/op", "speedup"});
  for (const auto& row : rows) {
    table.add_row({row.kernel, util::TextTable::integer(row.threads),
                   util::TextTable::num(row.ns_per_op, 0),
                   util::TextTable::num(row.speedup_vs_serial, 2)});
  }
  table.print(std::cout);

  if (!args.json_path.empty()) {
    runtime::Json j = runtime::Json::object();
    j.set("schema", "lrsizer-bench-kernels-v1");
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
      entry.set("threads", static_cast<std::int64_t>(row.threads));
      entry.set("ns_per_op", row.ns_per_op);
      entry.set("speedup_vs_serial", row.speedup_vs_serial);
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
