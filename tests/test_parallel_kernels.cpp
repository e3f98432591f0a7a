// The parallel-kernel contract (docs/ARCHITECTURE.md §Parallel kernels):
// level-schedule and coloring validity, KernelTeam chunk execution, and the
// headline bit-determinism guarantee — every kernel and the whole flow
// produce bit-identical results at threads = 1, 2 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/session.hpp"
#include "core/flow.hpp"
#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/channels.hpp"
#include "layout/coloring.hpp"
#include "netlist/elaborator.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "netlist/levels.hpp"
#include "runtime/pool.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"
#include "timing/upstream.hpp"

namespace {

using namespace lrsizer;

struct Instance {
  netlist::Circuit circuit;
  layout::CouplingSet coupling;
  std::vector<double> mu;
};

Instance make_instance(const std::string& profile) {
  const auto spec = netlist::spec_for_profile(profile, 1);
  const auto logic = netlist::generate_circuit(spec);
  auto elab = netlist::elaborate(logic, netlist::TechParams{}, spec.elab);
  const auto channels =
      layout::assign_channels(elab.circuit, elab.net_of_node, logic);
  auto coupling = layout::build_coupling_set(elab.circuit, channels.channels,
                                             layout::NeighborOptions{});
  elab.circuit.set_uniform_size(1.0);
  core::MultiplierState m(elab.circuit);
  m.init_default(elab.circuit);
  std::vector<double> mu;
  m.compute_mu(elab.circuit, mu);
  for (double& v : mu) v *= 1e13;
  return Instance{std::move(elab.circuit), std::move(coupling), std::move(mu)};
}

/// level-or-color number per node, -1 for nodes outside the schedule; also
/// asserts no node appears twice.
std::vector<std::int32_t> level_of(const netlist::LevelSchedule& schedule,
                                   netlist::NodeId num_nodes) {
  std::vector<std::int32_t> level(static_cast<std::size_t>(num_nodes), -1);
  for (std::int32_t l = 0; l < schedule.num_levels(); ++l) {
    for (const netlist::NodeId v : schedule.level(l)) {
      EXPECT_EQ(level[static_cast<std::size_t>(v)], -1)
          << "node " << v << " scheduled twice";
      level[static_cast<std::size_t>(v)] = l;
    }
  }
  return level;
}

// ---- level-schedule validity ------------------------------------------------

TEST(LevelSchedule, ForwardAndReverseWavefrontsRespectEveryEdge) {
  const Instance inst = make_instance("c432");
  const netlist::Circuit& c = inst.circuit;

  const auto forward = level_of(c.forward_levels(), c.num_nodes());
  const auto reverse = level_of(c.reverse_levels(), c.num_nodes());

  // Coverage: exactly the nodes 1 .. sink-1, each once.
  for (netlist::NodeId v = 0; v < c.num_nodes(); ++v) {
    const bool scheduled = v >= 1 && v < c.sink();
    EXPECT_EQ(forward[static_cast<std::size_t>(v)] >= 0, scheduled) << "node " << v;
    EXPECT_EQ(reverse[static_cast<std::size_t>(v)] >= 0, scheduled) << "node " << v;
  }

  // Dependency property: inputs strictly earlier forward, outputs strictly
  // earlier reverse.
  for (netlist::EdgeId e = 0; e < c.num_edges(); ++e) {
    const netlist::NodeId u = c.edge_from(e);
    const netlist::NodeId v = c.edge_to(e);
    if (u >= 1 && v < c.sink()) {
      EXPECT_LT(forward[static_cast<std::size_t>(u)],
                forward[static_cast<std::size_t>(v)])
          << "edge " << u << " -> " << v;
      EXPECT_GT(reverse[static_cast<std::size_t>(u)],
                reverse[static_cast<std::size_t>(v)])
          << "edge " << u << " -> " << v;
    }
  }
  EXPECT_GT(c.forward_levels().num_levels(), 1);
  EXPECT_GT(c.reverse_levels().num_levels(), 1);
}

// ---- coloring validity ------------------------------------------------------

TEST(CouplingColors, OrderPreservingDistanceTwoColoring) {
  const Instance inst = make_instance("c432");
  const netlist::Circuit& c = inst.circuit;
  const auto schedule = layout::build_coupling_colors(c, inst.coupling);
  const auto color = level_of(schedule, c.num_nodes());

  // Coverage: exactly the sized components.
  for (netlist::NodeId v = 0; v < c.num_nodes(); ++v) {
    EXPECT_EQ(color[static_cast<std::size_t>(v)] >= 0, c.is_sized(v)) << "node " << v;
  }

  std::size_t checked_pairs = 0;
  for (const auto& pair : inst.coupling.pairs()) {
    // Adjacent wires get distinct colors, and the colors preserve the index
    // order — the property that makes the colored sweep bit-identical to
    // the ascending-index Gauss-Seidel sweep.
    EXPECT_LT(color[static_cast<std::size_t>(pair.a)],
              color[static_cast<std::size_t>(pair.b)])
        << "pair (" << pair.a << ", " << pair.b << ")";
    ++checked_pairs;
  }
  EXPECT_GT(checked_pairs, 0u) << "profile has no coupling pairs to validate";

  // Distance 2: no two same-color nodes share a coupling neighbor.
  for (netlist::NodeId w = c.first_component(); w < c.end_component(); ++w) {
    const auto neighbors = inst.coupling.neighbors(w);
    for (std::size_t a = 0; a < neighbors.size(); ++a) {
      for (std::size_t b = a + 1; b < neighbors.size(); ++b) {
        EXPECT_NE(color[static_cast<std::size_t>(neighbors[a].other)],
                  color[static_cast<std::size_t>(neighbors[b].other)])
            << "nodes " << neighbors[a].other << " and " << neighbors[b].other
            << " share neighbor " << w;
      }
    }
  }
}

// ---- KernelTeam -------------------------------------------------------------

TEST(KernelTeam, ExecutesEveryChunkExactlyOnce) {
  runtime::KernelTeam team(4);
  EXPECT_EQ(team.threads(), 4);

  // Varying (n, grain) rounds; disjoint chunks mean the plain increments
  // are race-free iff the team executes each index exactly once per round.
  const std::int32_t kRounds = 50;
  const std::int32_t n = 10007;
  std::vector<std::int32_t> hits(static_cast<std::size_t>(n), 0);
  for (std::int32_t round = 0; round < kRounds; ++round) {
    const std::int32_t grain = 1 + (round % 97);
    team.run_chunks(n, grain, [&](std::int32_t begin, std::int32_t end) {
      EXPECT_EQ(begin % grain, 0);
      EXPECT_LE(end, n);
      for (std::int32_t i = begin; i < end; ++i) ++hits[static_cast<std::size_t>(i)];
    });
  }
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [&](std::int32_t h) { return h == kRounds; }));
}

TEST(KernelTeam, DegenerateRoundsRunInline) {
  runtime::KernelTeam team(2);
  int calls = 0;
  team.run_chunks(0, 16, [&](std::int32_t, std::int32_t) { ++calls; });
  EXPECT_EQ(calls, 0);  // empty round dispatches nothing
  team.run_chunks(5, 16, [&](std::int32_t begin, std::int32_t end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 5);
  });
  EXPECT_EQ(calls, 1);  // single chunk runs inline on the caller

  runtime::KernelTeam serial(1);
  EXPECT_EQ(serial.threads(), 1);
  serial.run_chunks(100, 10, [&](std::int32_t, std::int32_t) { ++calls; });
  EXPECT_EQ(calls, 2);  // no workers: one inline call covering [0, n)
}

// ---- kernel bit-identity ----------------------------------------------------

TEST(ParallelKernels, AnalysesBitIdenticalAcrossThreads) {
  const Instance inst = make_instance("c499");
  const auto& x = inst.circuit.sizes();

  for (const auto mode : {timing::CouplingLoadMode::kLocalOnly,
                          timing::CouplingLoadMode::kPropagateUpstream}) {
    timing::LoadAnalysis loads_serial;
    timing::compute_loads(inst.circuit, inst.coupling, x, mode, loads_serial);
    timing::ArrivalAnalysis arrivals_serial;
    timing::compute_arrivals(inst.circuit, x, loads_serial, arrivals_serial);
    std::vector<double> r_up_serial;
    timing::compute_weighted_upstream(inst.circuit, x, inst.mu, r_up_serial);

    for (const int threads : {2, 8}) {
      runtime::KernelTeam team(threads);
      timing::LoadAnalysis loads;
      timing::compute_loads(inst.circuit, inst.coupling, x, mode, loads, &team);
      EXPECT_EQ(loads.cap_delay, loads_serial.cap_delay) << threads;
      EXPECT_EQ(loads.cap_prime, loads_serial.cap_prime) << threads;
      EXPECT_EQ(loads.load_in, loads_serial.load_in) << threads;

      timing::ArrivalAnalysis arrivals;
      timing::compute_arrivals(inst.circuit, x, loads, arrivals, &team);
      EXPECT_EQ(arrivals.delay, arrivals_serial.delay) << threads;
      EXPECT_EQ(arrivals.arrival, arrivals_serial.arrival) << threads;
      EXPECT_EQ(arrivals.critical_delay, arrivals_serial.critical_delay) << threads;

      std::vector<double> r_up;
      timing::compute_weighted_upstream(inst.circuit, x, inst.mu, r_up, &team);
      EXPECT_EQ(r_up, r_up_serial) << threads;
    }
  }
}

TEST(ParallelKernels, LrsBitIdenticalAcrossThreads) {
  const Instance inst = make_instance("c499");
  core::LrsOptions options;
  options.sweep = core::SweepMode::kDense;  // the Figure-8 colored sweep

  core::LrsWorkspace ws_serial;
  auto x_serial = inst.circuit.sizes();
  const auto stats_serial = core::run_lrs(inst.circuit, inst.coupling, inst.mu, 1e9,
                                          1e9, options, x_serial, ws_serial);

  const auto colors = layout::build_coupling_colors(inst.circuit, inst.coupling);
  for (const int threads : {2, 8}) {
    runtime::KernelTeam team(threads);
    const core::LrsRuntime lrs_runtime{&team, &colors};
    core::LrsWorkspace ws;
    auto x = inst.circuit.sizes();
    const auto stats = core::run_lrs(inst.circuit, inst.coupling, inst.mu, 1e9, 1e9,
                                     options, x, ws, lrs_runtime);
    EXPECT_EQ(x, x_serial) << threads;
    EXPECT_EQ(stats.passes, stats_serial.passes) << threads;
    EXPECT_EQ(stats.max_rel_change, stats_serial.max_rel_change) << threads;
    // The hand-back contract holds in both paths: loads are at the final x.
    EXPECT_EQ(ws.loads.cap_delay, ws_serial.loads.cap_delay) << threads;
  }
}

TEST(ParallelKernels, WorklistLrsBitIdenticalAcrossThreads) {
  // The colored worklist sweep writes neighbor flags (pending / loads_dirty)
  // from inside the parallel chunks; this is the TSan-covered witness that
  // the distance-2 coloring keeps those writes disjoint. A resumed second
  // call exercises the incremental load repair under threads too.
  const Instance inst = make_instance("c499");
  core::LrsOptions options;
  options.sweep = core::SweepMode::kWorklist;
  options.warm_start = true;

  auto run_pair = [&](util::Executor* exec, const netlist::LevelSchedule* colors,
                      std::vector<double>& x, core::LrsWorkspace& ws) {
    const core::LrsRuntime lrs_runtime{exec, colors};
    auto mu = inst.mu;
    core::run_lrs(inst.circuit, inst.coupling, mu, 1e9, 1e9, options, x, ws,
                  lrs_runtime);
    for (std::size_t i = 5; i < mu.size(); i += 73) mu[i] *= 1.01;
    return core::run_lrs(inst.circuit, inst.coupling, mu, 1e9, 1e9, options, x,
                         ws, lrs_runtime);
  };

  core::LrsWorkspace ws_serial;
  std::vector<double> x_serial(inst.mu.size(), 1.0);
  const auto stats_serial = run_pair(nullptr, nullptr, x_serial, ws_serial);

  const auto colors = layout::build_coupling_colors(inst.circuit, inst.coupling);
  for (const int threads : {2, 8}) {
    runtime::KernelTeam team(threads);
    core::LrsWorkspace ws;
    std::vector<double> x(inst.mu.size(), 1.0);
    const auto stats = run_pair(&team, &colors, x, ws);
    EXPECT_EQ(x, x_serial) << threads;
    EXPECT_EQ(stats.passes, stats_serial.passes) << threads;
    EXPECT_EQ(stats.nodes_processed, stats_serial.nodes_processed) << threads;
    EXPECT_EQ(ws.loads.load_in, ws_serial.loads.load_in) << threads;
  }
}

// ---- dual-ascent kernels ----------------------------------------------------

/// Deterministic non-uniform λ (varied per edge so the projection actually
/// rescales) on top of the flow-conserving default.
core::MultiplierState perturbed_multipliers(const netlist::Circuit& circuit) {
  core::MultiplierState m(circuit);
  m.init_default(circuit);
  for (std::size_t e = 0; e < m.lambda.size(); ++e) {
    m.lambda[e] *= 1.0 + 0.13 * static_cast<double>(e % 7);
  }
  m.beta = 0.25;
  m.gamma = 0.125;
  return m;
}

TEST(ParallelKernels, FlowProjectionAndMuBitIdenticalAcrossThreads) {
  const Instance inst = make_instance("c499");

  core::MultiplierState serial = perturbed_multipliers(inst.circuit);
  serial.project_flow(inst.circuit);
  std::vector<double> mu_serial;
  serial.compute_mu(inst.circuit, mu_serial);

  for (const int threads : {2, 8}) {
    runtime::KernelTeam team(threads);
    core::MultiplierState m = perturbed_multipliers(inst.circuit);
    m.project_flow(inst.circuit, &team);
    EXPECT_EQ(m.lambda, serial.lambda) << threads;
    std::vector<double> mu;
    m.compute_mu(inst.circuit, mu, &team);
    EXPECT_EQ(mu, mu_serial) << threads;
  }
}

TEST(ParallelKernels, DualAscentStepBitIdenticalAcrossThreads) {
  const Instance inst = make_instance("c499");
  const auto& circuit = inst.circuit;
  const auto& x = circuit.sizes();
  const auto mode = timing::CouplingLoadMode::kLocalOnly;

  timing::LoadAnalysis loads;
  timing::compute_loads(circuit, inst.coupling, x, mode, loads);
  timing::ArrivalAnalysis arrivals;
  timing::compute_arrivals(circuit, x, loads, arrivals);
  const double cap = timing::total_cap(circuit, x);
  const double noise = inst.coupling.noise_linear(x);
  const double area_ref = timing::total_area(circuit, x);

  for (const auto rule : {core::StepRule::kSubgradient, core::StepRule::kMultiplicative}) {
    for (const double per_net : {0.0, 0.5}) {
      core::BoundFactors factors;
      factors.per_net_noise = per_net;
      const auto bounds = core::derive_bounds(circuit, inst.coupling, x, mode, factors);
      const core::DualScales scales{area_ref, area_ref / bounds.delay_s,
                                    area_ref / bounds.cap_f,
                                    area_ref / bounds.noise_f};
      core::OgwsOptions options;
      options.step_rule = rule;

      auto step = [&](util::Executor* exec) {
        core::MultiplierState m = perturbed_multipliers(circuit);
        if (bounds.per_net_enabled()) {
          m.gamma_net.assign(static_cast<std::size_t>(circuit.num_nodes()), 0.5);
        }
        core::dual_ascent_step(circuit, inst.coupling, bounds, options, arrivals,
                               x, cap, noise, 0.7, scales, m, exec);
        return m;
      };
      const core::MultiplierState serial = step(nullptr);
      for (const int threads : {2, 8}) {
        runtime::KernelTeam team(threads);
        const core::MultiplierState m = step(&team);
        const std::string label = "rule=" + std::to_string(static_cast<int>(rule)) +
                                  " per_net=" + std::to_string(per_net) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(m.lambda, serial.lambda) << label;
        EXPECT_EQ(m.beta, serial.beta) << label;
        EXPECT_EQ(m.gamma, serial.gamma) << label;
        EXPECT_EQ(m.gamma_net, serial.gamma_net) << label;
      }
    }
  }
}

// ---- whole-flow bit-identity ------------------------------------------------

core::FlowOptions flow_options(double per_net_noise,
                               timing::CouplingLoadMode mode) {
  core::FlowOptions options;
  options.num_vectors = 16;
  options.bound_factors.delay = 1.0;
  options.bound_factors.power = 0.15;
  options.bound_factors.noise = 0.10;
  options.bound_factors.per_net_noise = per_net_noise;
  options.ogws.lrs.mode = mode;
  options.ogws.max_iterations = 60;
  return options;
}

void expect_same_flow(const core::FlowResult& a, const core::FlowResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.ogws.sizes, b.ogws.sizes) << label;
  EXPECT_EQ(a.circuit.sizes(), b.circuit.sizes()) << label;
  EXPECT_EQ(a.ogws.area, b.ogws.area) << label;
  EXPECT_EQ(a.ogws.dual, b.ogws.dual) << label;
  EXPECT_EQ(a.ogws.rel_gap, b.ogws.rel_gap) << label;
  EXPECT_EQ(a.ogws.max_violation, b.ogws.max_violation) << label;
  EXPECT_EQ(a.ogws.converged, b.ogws.converged) << label;
  EXPECT_EQ(a.ogws.iterations, b.ogws.iterations) << label;
  EXPECT_EQ(a.memory_bytes, b.memory_bytes) << label;
  ASSERT_EQ(a.ogws.history.size(), b.ogws.history.size()) << label;
  for (std::size_t k = 0; k < a.ogws.history.size(); ++k) {
    const auto& ia = a.ogws.history[k];
    const auto& ib = b.ogws.history[k];
    EXPECT_EQ(ia.area, ib.area) << label << " iterate " << k;
    EXPECT_EQ(ia.delay, ib.delay) << label << " iterate " << k;
    EXPECT_EQ(ia.cap, ib.cap) << label << " iterate " << k;
    EXPECT_EQ(ia.noise, ib.noise) << label << " iterate " << k;
    EXPECT_EQ(ia.dual, ib.dual) << label << " iterate " << k;
    EXPECT_EQ(ia.rel_gap, ib.rel_gap) << label << " iterate " << k;
    EXPECT_EQ(ia.max_violation, ib.max_violation) << label << " iterate " << k;
    EXPECT_EQ(ia.lrs_passes, ib.lrs_passes) << label << " iterate " << k;
  }
  EXPECT_EQ(a.final_metrics.area_um2, b.final_metrics.area_um2) << label;
  EXPECT_EQ(a.final_metrics.delay_s, b.final_metrics.delay_s) << label;
  EXPECT_EQ(a.final_metrics.noise_f, b.final_metrics.noise_f) << label;
}

TEST(ParallelFlow, BitIdenticalAcrossThreadsAllVariants) {
  // The acceptance matrix: Table-1 profile x both sweep modes x both
  // coupling-load modes x per-net bounds on/off, threads in {1, 2, 8}.
  const auto netlist =
      netlist::generate_circuit(netlist::spec_for_profile("c432", 1));
  for (const auto sweep : {core::SweepMode::kWorklist, core::SweepMode::kDense}) {
    for (const auto mode : {timing::CouplingLoadMode::kLocalOnly,
                            timing::CouplingLoadMode::kPropagateUpstream}) {
      for (const double per_net : {0.0, 0.5}) {
        auto options = flow_options(per_net, mode);
        options.ogws.lrs.sweep = sweep;
        options.threads = 1;
        const auto baseline = core::run_two_stage_flow(netlist, options);
        for (const int threads : {2, 8}) {
          options.threads = threads;
          const auto result = core::run_two_stage_flow(netlist, options);
          expect_same_flow(baseline, result,
                           std::string(core::sweep_mode_name(sweep)) +
                               " mode=" + std::to_string(static_cast<int>(mode)) +
                               " per_net=" + std::to_string(per_net) +
                               " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(ParallelFlow, WarmStartBitIdenticalAcrossThreads) {
  const auto netlist =
      netlist::generate_circuit(netlist::spec_for_profile("c499", 1));
  const auto options = flow_options(0.0, timing::CouplingLoadMode::kLocalOnly);

  api::SizingSession cold(netlist, options);
  ASSERT_TRUE(cold.run_all().ok());
  const core::FlowResult prior = cold.take_result();

  auto rerun = [&](int threads) {
    auto warm_options = options;
    warm_options.threads = threads;
    api::SizingSession session(netlist, warm_options);
    EXPECT_TRUE(session.warm_start_from(prior).ok());
    EXPECT_TRUE(session.run_all().ok());
    return session.take_result();
  };
  const auto warm1 = rerun(1);
  for (const int threads : {2, 8}) {
    expect_same_flow(warm1, rerun(threads), "warm threads=" + std::to_string(threads));
  }
}

TEST(ParallelFlow, SessionHonorsExternalExecutor) {
  const auto netlist =
      netlist::generate_circuit(netlist::spec_for_profile("c499", 1));
  const auto options = flow_options(0.0, timing::CouplingLoadMode::kLocalOnly);

  api::SizingSession serial(netlist, options);
  ASSERT_TRUE(serial.run_all().ok());

  runtime::KernelTeam team(4);
  api::SizingSession session(netlist, options);
  session.set_executor(&team);
  ASSERT_TRUE(session.run_all().ok());

  expect_same_flow(serial.result(), session.result(), "external executor");
}

}  // namespace
