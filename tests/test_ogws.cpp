// OGWS: convergence, feasibility, optimality vs brute force, weak duality.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "core/lagrangian.hpp"
#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "obs/trace.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "timing/metrics.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;


struct Problem {
  netlist::Circuit circuit;
  layout::CouplingSet coupling;
  core::Bounds bounds;
};

Problem chain_problem(const core::BoundFactors& factors) {
  auto c = ChainCircuit::make();
  c.circuit.set_uniform_size(1.0);
  auto coupling = test_support::no_coupling(c.circuit);
  const auto bounds =
      core::derive_bounds(c.circuit, coupling, c.circuit.sizes(), factors);
  return Problem{std::move(c.circuit), std::move(coupling), bounds};
}

Problem fig1_problem(const core::BoundFactors& factors) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  auto coupling = f.make_coupling();
  const auto bounds =
      core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), factors);
  return Problem{std::move(f.circuit), std::move(coupling), bounds};
}

TEST(Ogws, ConvergesOnFig1) {
  auto p = fig1_problem(core::BoundFactors{});
  const auto result = core::run_ogws(p.circuit, p.coupling, p.bounds);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.max_violation, 0.011);
  EXPECT_LE(result.rel_gap, 0.011);
}

TEST(Ogws, SolutionIsFeasible) {
  auto p = fig1_problem(core::BoundFactors{});
  const auto result = core::run_ogws(p.circuit, p.coupling, p.bounds);
  const auto m = timing::compute_metrics(p.circuit, p.coupling, result.sizes);
  EXPECT_LE(m.delay_s, p.bounds.delay_s * 1.02);
  EXPECT_LE(m.cap_f, p.bounds.cap_f * 1.02);
  EXPECT_LE(m.noise_f, p.bounds.noise_f * 1.02);
}

TEST(Ogws, SizesWithinBox) {
  auto p = fig1_problem(core::BoundFactors{});
  const auto result = core::run_ogws(p.circuit, p.coupling, p.bounds);
  for (netlist::NodeId v = p.circuit.first_component(); v < p.circuit.end_component();
       ++v) {
    EXPECT_GE(result.sizes[static_cast<std::size_t>(v)],
              p.circuit.lower_bound(v) - 1e-12);
    EXPECT_LE(result.sizes[static_cast<std::size_t>(v)],
              p.circuit.upper_bound(v) + 1e-12);
  }
}

TEST(Ogws, MatchesBruteForceOnChain) {
  // 3 sized components: exhaustive grid search is the ground truth.
  core::BoundFactors factors;
  factors.delay = 0.9;
  factors.power = 0.5;
  factors.noise = 0.5;  // noise trivially satisfied (no coupling pairs)
  auto p = chain_problem(factors);

  // Log-spaced grid over [0.1, 10].
  const int steps = 24;
  std::vector<double> grid(steps);
  for (int k = 0; k < steps; ++k) {
    grid[static_cast<std::size_t>(k)] =
        0.1 * std::pow(100.0, static_cast<double>(k) / (steps - 1));
  }
  auto x = p.circuit.sizes();
  double best_area = 1e300;
  const netlist::NodeId c0 = p.circuit.first_component();
  for (double a : grid) {
    for (double b : grid) {
      for (double c : grid) {
        x[static_cast<std::size_t>(c0)] = a;
        x[static_cast<std::size_t>(c0 + 1)] = b;
        x[static_cast<std::size_t>(c0 + 2)] = c;
        const auto m = timing::compute_metrics(p.circuit, p.coupling, x);
        if (m.delay_s <= p.bounds.delay_s && m.cap_f <= p.bounds.cap_f) {
          best_area = std::min(best_area, m.area_um2);
        }
      }
    }
  }
  ASSERT_LT(best_area, 1e299) << "grid found no feasible point";

  core::OgwsOptions options;
  options.max_iterations = 600;
  const auto result = core::run_ogws(p.circuit, p.coupling, p.bounds, options);
  const auto m = timing::compute_metrics(p.circuit, p.coupling, result.sizes);
  EXPECT_LE(m.delay_s, p.bounds.delay_s * 1.02);
  // Within 10% of the exhaustive optimum (grid resolution + 1% tolerance).
  EXPECT_LE(m.area_um2, best_area * 1.10);
  // Weak duality: the dual value never exceeds a feasible primal area.
  EXPECT_LE(result.dual, best_area * 1.02);
}

TEST(Ogws, NoiseConstraintIsActiveAtTenPercent) {
  // The Table 1 shape: with X0 = 0.1 × init, the noise bound binds and the
  // final noise sits at the bound.
  auto p = fig1_problem(core::BoundFactors{});
  const auto result = core::run_ogws(p.circuit, p.coupling, p.bounds);
  const auto m = timing::compute_metrics(p.circuit, p.coupling, result.sizes);
  EXPECT_LE(m.noise_f, p.bounds.noise_f * 1.02);
  EXPECT_GE(m.noise_f, p.bounds.noise_f * 0.5);  // not far below: bound binds
}

TEST(Ogws, LooserNoiseBoundNeverIncreasesArea) {
  core::BoundFactors tight;
  tight.noise = 0.10;
  core::BoundFactors loose;
  loose.noise = 0.80;
  auto pt = fig1_problem(tight);
  auto pl = fig1_problem(loose);
  const auto rt = core::run_ogws(pt.circuit, pt.coupling, pt.bounds);
  const auto rl = core::run_ogws(pl.circuit, pl.coupling, pl.bounds);
  const auto mt = timing::compute_metrics(pt.circuit, pt.coupling, rt.sizes);
  const auto ml = timing::compute_metrics(pl.circuit, pl.coupling, rl.sizes);
  EXPECT_LE(ml.area_um2, mt.area_um2 * 1.05);
}

TEST(Ogws, TighterDelayBoundCostsArea) {
  core::BoundFactors relaxed;
  relaxed.delay = 1.3;
  core::BoundFactors tight;
  tight.delay = 0.8;
  auto pr = fig1_problem(relaxed);
  auto pt = fig1_problem(tight);
  const auto rr = core::run_ogws(pr.circuit, pr.coupling, pr.bounds);
  const auto rt = core::run_ogws(pt.circuit, pt.coupling, pt.bounds);
  const auto mr = timing::compute_metrics(pr.circuit, pr.coupling, rr.sizes);
  const auto mt = timing::compute_metrics(pt.circuit, pt.coupling, rt.sizes);
  EXPECT_GE(mt.area_um2, mr.area_um2 * 0.999);
}

TEST(Ogws, DeterministicAcrossRuns) {
  auto p = fig1_problem(core::BoundFactors{});
  const auto a = core::run_ogws(p.circuit, p.coupling, p.bounds);
  const auto b = core::run_ogws(p.circuit, p.coupling, p.bounds);
  ASSERT_EQ(a.sizes.size(), b.sizes.size());
  for (std::size_t i = 0; i < a.sizes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sizes[i], b.sizes[i]);
  }
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Ogws, HistoryRecordsEveryIteration) {
  auto p = fig1_problem(core::BoundFactors{});
  core::OgwsOptions options;
  options.record_history = true;
  const auto result = core::run_ogws(p.circuit, p.coupling, p.bounds, options);
  ASSERT_EQ(result.history.size(), static_cast<std::size_t>(result.iterations));
  for (std::size_t k = 0; k < result.history.size(); ++k) {
    EXPECT_EQ(result.history[k].k, static_cast<int>(k) + 1);
    EXPECT_GT(result.history[k].area, 0.0);
    EXPECT_GE(result.history[k].seconds, 0.0);
  }
  EXPECT_GT(result.workspace_bytes, 0u);
}

TEST(Ogws, WorkspaceBytesCoverEveryPerNodeVectorTheRunKeeps) {
  // workspace_bytes feeds Table 1's mem column, Figure 10(a) and every
  // report's memory_bytes. Per node the run keeps eleven doubles: x and μ;
  // the LRS workspace's loads (cap_delay, cap_prime, load_in), r_up, mu_res,
  // gamma_coef and exit_x; and the arrival analysis's delay and arrival.
  // Per edge it keeps λ, and per node once more γ_net when per-net noise
  // bounds are on. The count must cover all of them, and no vector twice.
  for (const double per_net : {0.0, 0.5}) {
    core::FlowOptions options;
    options.bound_factors.per_net_noise = per_net;
    api::SizingSession session(netlist::generate_circuit(netlist::spec_for_profile("c432")),
                               options);
    ASSERT_TRUE(session.run_all().ok());
    const netlist::Circuit& circuit = session.result().circuit;
    const std::size_t per_node = per_net > 0.0 ? 12 : 11;
    const std::size_t kept =
        sizeof(double) * (per_node * static_cast<std::size_t>(circuit.num_nodes()) +
                          static_cast<std::size_t>(circuit.num_edges()));
    const std::size_t counted = session.result().ogws.workspace_bytes;
    EXPECT_GE(counted, kept) << "per_net " << per_net;
    EXPECT_LT(counted, kept + kept / 8) << "per_net " << per_net;
  }
}

TEST(Ogws, DualNeverExceedsFinalAreaMuch) {
  // Weak duality at the returned iterate (gap tolerance applies).
  auto p = fig1_problem(core::BoundFactors{});
  const auto result = core::run_ogws(p.circuit, p.coupling, p.bounds);
  EXPECT_LE(result.dual, result.area * 1.02);
}

/// Σ α_i·U_i: the area with every component at its upper size bound.
double box_max_area(const netlist::Circuit& circuit) {
  double area = 0.0;
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    area += circuit.area_weight(v) * circuit.upper_bound(v);
  }
  return area;
}

TEST(Ogws, DualAboveTheBoxMaximumAreaStopsAnUnreachableBound) {
  // A delay bound of 1% of c432's initial delay is out of reach of any
  // sizing, and without a stop its multipliers grow toward overflow. Once
  // the best dual passes the box's maximum area, weak duality proves the
  // bound unreachable, and the run stops unconverged long before the cap.
  core::FlowOptions options;
  options.bound_factors.delay = 0.01;
  options.ogws.max_iterations = 2000;
  api::SizingSession session(netlist::generate_circuit(netlist::spec_for_profile("c432")),
                             options);
  int events = 0;
  session.set_observer([&events](const core::OgwsIterate&) { ++events; });
  obs::TraceSession trace;
  session.set_trace(&trace);
  ASSERT_TRUE(session.run_all().ok());
  const core::OgwsResult& ogws = session.result().ogws;
  EXPECT_TRUE(ogws.proved_infeasible);
  EXPECT_FALSE(ogws.converged);
  EXPECT_FALSE(ogws.cancelled);
  EXPECT_LE(ogws.iterations, 5);
  // The stopping iteration reports like every other exit: one observer
  // event and one iteration span per iteration, and the size span says why.
  EXPECT_EQ(events, ogws.iterations);
  int iteration_spans = 0;
  double infeasible_arg = -1.0;
  for (const auto& span : trace.spans()) {
    if (span.name == "ogws_iteration") ++iteration_spans;
    if (span.name != "size") continue;
    for (const auto& [key, value] : span.args) {
      if (key == "infeasible") infeasible_arg = value;
    }
  }
  EXPECT_EQ(iteration_spans, ogws.iterations);
  EXPECT_EQ(infeasible_arg, 1.0);
  EXPECT_TRUE(std::isfinite(ogws.dual));
  EXPECT_GT(ogws.dual, box_max_area(session.result().circuit));
  EXPECT_GT(ogws.max_violation, options.ogws.feas_tol);
}

TEST(Ogws, TableOneProfilesConvergeWithoutTheInfeasibilityStop) {
  // The stop only ever fires on a bound no sizing meets: at default options
  // every Table-1 profile converges, with its dual below the box maximum.
  for (const auto& profile : netlist::iscas85_profiles()) {
    api::SizingSession session(
        netlist::generate_circuit(netlist::spec_for_profile(profile.name)), {});
    ASSERT_TRUE(session.run_all().ok()) << profile.name;
    const core::OgwsResult& ogws = session.result().ogws;
    EXPECT_TRUE(ogws.converged) << profile.name;
    EXPECT_FALSE(ogws.proved_infeasible) << profile.name;
    EXPECT_LT(ogws.iterations, core::OgwsOptions{}.max_iterations) << profile.name;
    EXPECT_LT(ogws.dual, box_max_area(session.result().circuit)) << profile.name;
  }
}

/// One row of the work ledger: the work a default-options run does on one
/// circuit, counted, and the bits of its answer.
struct LedgerRow {
  std::string circuit;
  int iterations = 0;
  long long lrs_passes = 0;  ///< summed over OgwsResult::history
  long long lrs_nodes = 0;   ///< LRS node evaluations, likewise
  long long pow_calls = 0;   ///< dual-step pow() calls (OgwsResult::pow_calls)
  long long sim_events = 0;  ///< sim::simulate's total_events (t < T)
  std::string area;          ///< returned area, as a hex double
  std::string dual;          ///< best dual, as a hex double
};

std::string hex_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

/// The row as C++ source, so a mismatch prints rows ready to paste.
std::string ledger_line(const LedgerRow& r) {
  return "      {\"" + r.circuit + "\", " + std::to_string(r.iterations) + ", " +
         std::to_string(r.lrs_passes) + ", " + std::to_string(r.lrs_nodes) + ", " +
         std::to_string(r.pow_calls) + ", " + std::to_string(r.sim_events) + ", \"" +
         r.area + "\", \"" + r.dual + "\"},\n";
}

// The work ledger: real c17 (which ends at the weak-duality stop) and the ten
// Table-1 profiles at generator seed 1, sized at default options. Every
// count here is deterministic, so a change that keeps each row did the same
// work and returned the same bits; any drift is an algorithmic change, never
// noise. A change that alters the work on purpose pastes the regenerated
// rows below over these and says why.
const std::vector<LedgerRow>& recorded_ledger() {
  static const std::vector<LedgerRow> kRows = {
      // circuit, iterations, LRS passes, LRS node evaluations, pow() calls,
      // sim events, area, best dual
      {"c17", 34, 88, 1760, 330, 250, "0x1.861ca9bab2dadp+9", "0x1.6c529c98e1fcp+12"},
      {"c1355", 13, 31, 49910, 6240, 11440, "0x1.2f036c0ed27d6p+12", "0x1.2c0afa9b2db93p+12"},
      {"c1908", 17, 40, 95120, 9888, 24252, "0x1.c50220af5f605p+12", "0x1.c086c89d93118p+12"},
      {"c2670", 23, 58, 189602, 19470, 34826, "0x1.982e1a9d22279p+13", "0x1.adaab1a15eeacp+13"},
      {"c3540", 18, 49, 225792, 21624, 82962, "0x1.e1aab88178dd4p+13", "0x1.de74bc184affcp+13"},
      {"c432", 17, 43, 27520, 3424, 5241, "0x1.21199ef723f92p+11", "0x1.2d6e3034fb274p+11"},
      {"c499", 16, 44, 63448, 6210, 11016, "0x1.8e763bb6b0cecp+12", "0x1.da0f7fee3613cp+12"},
      {"c5315", 30, 68, 455124, 60349, 112017, "0x1.570c8c008454dp+14", "0x1.53acd63e43c9dp+14"},
      {"c6288", 54, 105, 757680, 126352, 289034, "0x1.53550e61c30ebp+14", "0x1.4ffc2eabc7ce9p+14"},
      {"c7552", 27, 65, 627640, 68484, 146032, "0x1.02cd998d4424ep+15", "0x1.007da62dda4d3p+15"},
      {"c880", 15, 38, 42256, 4872, 8076, "0x1.c1bcabdee4cdcp+11", "0x1.bdd09a0170c5p+11"},
  };
  return kRows;
}

/// The ledger's circuits, in recorded_ledger() order.
std::vector<std::pair<std::string, netlist::LogicNetlist>> ledger_circuits() {
  std::vector<std::pair<std::string, netlist::LogicNetlist>> circuits;
  circuits.emplace_back("c17", netlist::parse_bench_string(netlist::kIscas85C17));
  for (const auto& profile : netlist::iscas85_profiles()) {
    circuits.emplace_back(profile.name,
                          netlist::generate_circuit(netlist::spec_for_profile(profile.name)));
  }
  return circuits;
}

/// Size one ledger circuit at default options (traced into `trace` when
/// set) and count its OGWS and LRS work. `sim_events` stays 0.
LedgerRow size_ledger_row(const std::string& name, netlist::LogicNetlist netlist,
                          obs::TraceSession* trace) {
  LedgerRow row;
  row.circuit = name;
  api::SizingSession session(std::move(netlist), core::FlowOptions{});
  session.set_trace(trace);
  EXPECT_TRUE(session.run_all().ok()) << name;
  if (!session.has_result()) return row;
  const core::OgwsResult& ogws = session.result().ogws;
  row.iterations = ogws.iterations;
  row.pow_calls = ogws.pow_calls;
  for (const core::OgwsIterate& it : ogws.history) {
    row.lrs_passes += it.lrs_passes;
    row.lrs_nodes += it.lrs_nodes_processed;
  }
  row.area = hex_double(ogws.area);
  row.dual = hex_double(ogws.dual);
  return row;
}

TEST(Ogws, WorkLedgerMatchesTheRecordedRows) {
  std::string want;
  for (const LedgerRow& row : recorded_ledger()) want += ledger_line(row);
  std::string got;
  for (auto& [name, netlist] : ledger_circuits()) {
    const core::FlowOptions options;
    // The session's own stage-1 simulation, repeated to count its events.
    const auto vectors = sim::random_vectors(
        static_cast<std::int32_t>(netlist.primary_inputs().size()), options.num_vectors,
        options.pattern_seed);
    const long long sim_events = sim::simulate(netlist, vectors, options.sim).total_events;
    LedgerRow row = size_ledger_row(name, std::move(netlist), nullptr);
    row.sim_events = sim_events;
    got += ledger_line(row);
  }
  EXPECT_EQ(got, want) << "regenerated ledger rows:\n" << got;
}

TEST(Ogws, TracingLeavesTheWorkLedgerUnchanged) {
  // Tracing only reads optimizer state: every ledger circuit sized with a
  // TraceSession attached must do the recorded work and return the recorded
  // bits, with one lrs_pass span per counted LRS pass and one ogws_iteration
  // span per iteration.
  const std::vector<LedgerRow>& recorded = recorded_ledger();
  auto circuits = ledger_circuits();
  ASSERT_EQ(circuits.size(), recorded.size());
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    auto& [name, netlist] = circuits[c];
    obs::TraceSession trace;
    LedgerRow row = size_ledger_row(name, std::move(netlist), &trace);
    row.sim_events = recorded[c].sim_events;  // stage 1 is not traced work
    EXPECT_EQ(ledger_line(row), ledger_line(recorded[c]));
    long long passes = 0;
    int iterations = 0;
    for (const obs::TraceSession::Span& span : trace.spans()) {
      passes += span.name == "lrs_pass";
      iterations += span.name == "ogws_iteration";
    }
    EXPECT_EQ(passes, row.lrs_passes) << name;
    EXPECT_EQ(iterations, row.iterations) << name;
  }
}

TEST(Ogws, ReportedBestDualIsTheExactDualAtItsMultipliers) {
  // LRS stops at S5's tolerance, so each iteration's dual is L at a
  // near-minimizer, which can only sit above the exact dual min_x L. For
  // every ledger circuit, re-solve LRS at the best dual's multipliers from
  // the lower bounds to 1e-12 and evaluate L there: the reported best dual
  // must agree with that exact dual to a thousandth of the certificate's
  // own tolerance, so the inexact solve can never close a gap on its own.
  const core::OgwsOptions defaults;
  for (auto& [name, netlist] : ledger_circuits()) {
    api::SizingSession session(std::move(netlist), core::FlowOptions{});
    ASSERT_TRUE(session.run_all().ok()) << name;
    const core::FlowResult& flow = session.result();
    const core::OgwsWarmStart& warm = flow.ogws.warm;
    ASSERT_TRUE(warm.seeds_multipliers()) << name;
    core::MultiplierState m(flow.circuit);
    m.lambda = warm.lambda;
    m.beta = warm.beta;
    m.gamma = warm.gamma;
    std::vector<double> mu;
    m.compute_mu(flow.circuit, mu);

    core::LrsOptions exact;
    exact.tol = 1e-12;
    exact.max_passes = 1000;
    core::LrsWorkspace workspace;
    std::vector<double> x = flow.circuit.sizes();
    const core::LrsStats stats = core::run_lrs(flow.circuit, flow.coupling, mu, m.beta,
                                               m.gamma, exact, x, workspace);
    ASSERT_LT(stats.max_rel_change, exact.tol) << name;
    const double dual =
        core::lagrangian_value(flow.circuit, flow.coupling, x, mu, m.sink_mu(flow.circuit),
                               m.beta, m.gamma, flow.bounds);
    EXPECT_LE(std::abs(flow.ogws.dual - dual), 1e-3 * defaults.gap_tol * flow.ogws.area)
        << name << ": reported " << flow.ogws.dual << ", exact " << dual;
  }
}

}  // namespace
