// Differential convergence-equivalence battery for the worklist LRS sweep
// (core::SweepMode::kWorklist, docs/ARCHITECTURE.md §Worklist LRS).
//
// The worklist sweep is NOT bit-identical to the dense reference — it skips
// ε-stationary components — so these tests pin down the equivalence that IS
// promised: both modes converge to the same fixpoint within tolerance, with
// comparable iteration counts, while the worklist does strictly less work.
// The battery runs whole OGWS optimizations in both modes across ISCAS
// profiles, seeded generator variants, both coupling-load modes and both
// noise-bound shapes (total-only and distributed per-net), plus warm starts;
// probe-driven property tests certify the dirty-set logic (every skipped
// node really was stationary; the repaired r_up, loads and frontier equal a
// full recomputation at every pass start).
//
// Divergence margins are calibrated ~30x above measured worst cases
// (sizes ≤ 3.1e-5 rel, area ≤ 8.3e-6 rel, identical iteration counts on all
// calibration configs), so a failure here means a real regression, not noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "api/options.hpp"
#include "core/kkt.hpp"
#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/channels.hpp"
#include "netlist/elaborator.hpp"
#include "netlist/generator.hpp"
#include "timing/loads.hpp"
#include "timing/upstream.hpp"

namespace {

using namespace lrsizer;

constexpr auto kLocal = timing::CouplingLoadMode::kLocalOnly;
constexpr auto kUpstream = timing::CouplingLoadMode::kPropagateUpstream;

struct Problem {
  netlist::Circuit circuit;
  layout::CouplingSet coupling;
  core::Bounds bounds;
};

/// Elaborated, channel-routed instance with bounds derived at uniform size 1.
Problem build_problem(const std::string& profile, int seed,
                      timing::CouplingLoadMode mode, double per_net) {
  const auto spec = netlist::spec_for_profile(profile, seed);
  const auto logic = netlist::generate_circuit(spec);
  auto elab = netlist::elaborate(logic, netlist::TechParams{}, spec.elab);
  const auto channels =
      layout::assign_channels(elab.circuit, elab.net_of_node, logic);
  auto coupling = layout::build_coupling_set(elab.circuit, channels.channels,
                                             layout::NeighborOptions{});
  elab.circuit.set_uniform_size(1.0);
  core::BoundFactors factors;
  factors.per_net_noise = per_net;
  const auto bounds = core::derive_bounds(elab.circuit, coupling,
                                          elab.circuit.sizes(), mode, factors);
  return Problem{std::move(elab.circuit), std::move(coupling), bounds};
}

core::OgwsResult run_mode(const Problem& p, timing::CouplingLoadMode mode,
                          core::SweepMode sweep, int max_iterations = 60,
                          const core::OgwsWarmStart* warm = nullptr,
                          bool capture_warm = false) {
  core::OgwsOptions options;
  options.max_iterations = max_iterations;
  options.lrs.mode = mode;
  options.lrs.sweep = sweep;
  core::OgwsControl control;
  control.warm_start = warm;
  control.capture_warm_start = capture_warm;
  return core::run_ogws(p.circuit, p.coupling, p.bounds, options, control);
}

/// μ vector the way the OGWS loop produces it (flow-conserving default λ),
/// scaled into the regime where Theorem 5's resize moves the sizes.
std::vector<double> default_mu(const netlist::Circuit& circuit) {
  core::MultiplierState m(circuit);
  m.init_default(circuit);
  std::vector<double> mu;
  m.compute_mu(circuit, mu);
  for (double& v : mu) v *= 1e13;
  return mu;
}

// ---- differential battery: worklist vs dense over whole OGWS runs ----------

TEST(SweepWorklist, MatchesDenseAcrossProfilesModesAndBounds) {
  struct Config {
    const char* profile;
    int seed;
    timing::CouplingLoadMode mode;
    double per_net;
  };
  // ISCAS profiles under every (coupling mode × bound shape) combination,
  // plus seeded generator variants so the battery is not wedded to the
  // canonical netlists.
  const Config configs[] = {
      {"c432", 1, kLocal, 0.0},  {"c432", 1, kLocal, 0.5},
      {"c432", 1, kUpstream, 0.0}, {"c432", 1, kUpstream, 0.5},
      {"c499", 1, kLocal, 0.0},  {"c499", 1, kUpstream, 0.5},
      {"c432", 7, kUpstream, 0.0}, {"c499", 13, kLocal, 0.5},
  };

  for (const auto& cfg : configs) {
    SCOPED_TRACE(std::string(cfg.profile) + " seed " + std::to_string(cfg.seed) +
                 (cfg.mode == kLocal ? " local" : " upstream") + " per_net " +
                 std::to_string(cfg.per_net));
    const Problem p = build_problem(cfg.profile, cfg.seed, cfg.mode, cfg.per_net);
    const auto dense = run_mode(p, cfg.mode, core::SweepMode::kDense);
    const auto wl = run_mode(p, cfg.mode, core::SweepMode::kWorklist);

    // Same convergence verdict, near-identical trajectory length.
    EXPECT_EQ(dense.converged, wl.converged);
    EXPECT_LE(std::abs(dense.iterations - wl.iterations), 5)
        << "dense " << dense.iterations << " vs worklist " << wl.iterations;

    // Same certificate, within calibrated slack.
    EXPECT_LE(std::abs(dense.area - wl.area),
              1e-4 * std::max(std::abs(dense.area), 1e-12))
        << "area dense " << dense.area << " vs worklist " << wl.area;
    EXPECT_LE(std::abs(dense.max_violation - wl.max_violation),
              1e-3 * std::max(1.0, std::abs(dense.max_violation)));

    // Same sizes, node by node. On failure, dump both the first and the
    // worst diverging node so the regression is immediately localizable.
    ASSERT_EQ(dense.sizes.size(), wl.sizes.size());
    constexpr double kSizeTol = 1e-3;
    std::size_t worst = 0, first_bad = 0;
    double worst_rel = 0.0;
    bool has_bad = false;
    for (netlist::NodeId v = p.circuit.first_component();
         v < p.circuit.end_component(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      const double rel = std::abs(dense.sizes[i] - wl.sizes[i]) /
                         std::max(std::abs(dense.sizes[i]), 1e-12);
      if (rel > worst_rel) {
        worst_rel = rel;
        worst = i;
      }
      if (rel >= kSizeTol && !has_bad) {
        has_bad = true;
        first_bad = i;
      }
    }
    EXPECT_LT(worst_rel, kSizeTol)
        << "first diverging node " << first_bad << " (dense "
        << dense.sizes[first_bad] << ", worklist " << wl.sizes[first_bad]
        << "); worst node " << worst << " rel " << worst_rel << " (dense "
        << dense.sizes[worst] << ", worklist " << wl.sizes[worst] << ")";

    // The equivalence must not be vacuous: the worklist has to have actually
    // skipped work to earn its keep.
    long long dense_nodes = 0, wl_nodes = 0;
    for (const auto& it : dense.history) dense_nodes += it.lrs_nodes_processed;
    for (const auto& it : wl.history) wl_nodes += it.lrs_nodes_processed;
    EXPECT_GT(wl_nodes, 0);
    EXPECT_LT(wl_nodes, (dense_nodes * 4) / 5)
        << "worklist evaluated " << wl_nodes << " of dense " << dense_nodes;
  }
}

TEST(SweepWorklist, WarmStartedWorklistReconvergesAndSatisfiesKkt) {
  const Problem p = build_problem("c499", 1, kUpstream, 0.0);
  const auto dense =
      run_mode(p, kUpstream, core::SweepMode::kDense, 60, nullptr, true);
  ASSERT_TRUE(dense.converged);
  ASSERT_FALSE(dense.warm.empty());

  // Seed a worklist run from the dense certificate: it must re-converge in
  // at most as many iterations, to the same area, and stay feasible.
  const auto wl = run_mode(p, kUpstream, core::SweepMode::kWorklist, 60,
                           &dense.warm, true);
  EXPECT_TRUE(wl.converged);
  EXPECT_LE(wl.iterations, dense.iterations);
  EXPECT_LE(wl.max_violation, 0.011);
  EXPECT_LE(std::abs(wl.area - dense.area), 1e-3 * dense.area);

  // KKT residuals at the returned iterate, under the best-dual multipliers
  // (the run's own capture when present, else the seed's).
  const core::OgwsWarmStart& cert = wl.warm.empty() ? dense.warm : wl.warm;
  core::MultiplierState m(p.circuit);
  m.lambda = cert.lambda;
  m.beta = cert.beta;
  m.gamma = cert.gamma;
  m.gamma_net = cert.gamma_net;
  const auto kkt =
      core::check_kkt(p.circuit, p.coupling, m, p.bounds, wl.sizes, kUpstream);
  EXPECT_LE(kkt.flow, 1e-9);  // projection invariant survives the sweep mode
  EXPECT_LE(kkt.primal_delay, 0.011);
  EXPECT_LE(kkt.primal_power, 0.011);
  EXPECT_LE(kkt.primal_noise, 0.011);
}

// ---- dirty-set correctness: skipped nodes really were stationary -----------

TEST(SweepWorklist, SkippedNodesAreStationaryOnRandomizedCircuits) {
  for (const int seed : {3, 5, 9}) {
    SCOPED_TRACE("generator seed " + std::to_string(seed));
    const Problem p = build_problem("c432", seed, kLocal, 0.0);
    auto mu = default_mu(p.circuit);
    const double beta = 0.25;
    const core::NoiseMultipliers gamma(0.125);

    core::LrsOptions options;
    options.sweep = core::SweepMode::kWorklist;
    options.warm_start = true;
    options.mode = kLocal;

    // Frozen pass-start state: exactly what the sweep will read for pass
    // `pass` (on_pass_begin fires after seeding, before any resize).
    struct Frozen {
      int pass = -1;
      std::vector<double> x;
      std::vector<double> r_up;
      timing::LoadAnalysis loads;
      std::vector<unsigned char> pending;
    } frozen;
    long long skipped_checked = 0;

    core::LrsProbe probe;
    probe.on_pass_begin = [&](int pass, const std::vector<double>& x_now,
                              const timing::LoadAnalysis& loads,
                              const std::vector<double>& r_up,
                              const std::vector<unsigned char>& pending) {
      frozen.pass = pass;
      frozen.x = x_now;
      frozen.loads = loads;
      frozen.r_up = r_up;
      frozen.pending = pending;
    };
    probe.on_pass_end = [&](int pass,
                            const std::vector<unsigned char>& processed) {
      ASSERT_EQ(pass, frozen.pass);
      for (netlist::NodeId v = p.circuit.first_component();
           v < p.circuit.end_component(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        if (frozen.pending[i] != 0) {
          // The sweep honors the frontier exactly.
          EXPECT_EQ(processed[i], 1) << "pending node " << v
                                     << " not evaluated on pass " << pass;
          continue;
        }
        // A clean node may still get evaluated this pass when an
        // earlier-index mover flags it mid-sweep; only genuinely skipped
        // nodes carry the stationarity obligation.
        if (processed[i] != 0) continue;
        const double opt =
            core::optimal_resize(p.circuit, p.coupling, mu, beta, gamma,
                                 frozen.x, frozen.loads, frozen.r_up, v);
        const double clamped = std::clamp(opt, p.circuit.lower_bound(v),
                                          p.circuit.upper_bound(v));
        const double rel = std::abs(clamped - frozen.x[i]) / frozen.x[i];
        EXPECT_LT(rel, options.tol)
            << "skipped node " << v << " would have moved " << rel
            << " on pass " << pass << " (x " << frozen.x[i] << " -> "
            << clamped << ")";
        ++skipped_checked;
      }
    };

    core::LrsRuntime runtime;
    runtime.probe = &probe;
    std::vector<double> x(mu.size(), 1.0);
    core::LrsWorkspace ws;
    core::run_lrs(p.circuit, p.coupling, mu, beta, gamma, options, x, ws,
                  runtime);
    // Perturbation rounds: nudge scattered μ entries (what an OGWS dual step
    // does) and resume — the frontier must stay honest while mostly empty.
    for (int round = 0; round < 3; ++round) {
      const double f = (round % 2 == 0) ? 1.004 : 0.997;
      for (std::size_t i = static_cast<std::size_t>(3 + round); i < mu.size();
           i += 41) {
        mu[i] *= f;
      }
      core::run_lrs(p.circuit, p.coupling, mu, beta, gamma, options, x, ws,
                    runtime);
    }
    EXPECT_GT(skipped_checked, 0) << "property test never exercised a skip";
  }
}

// ---- repaired analyses and frontier equal full recomputation ---------------

TEST(SweepWorklist, RepairedUpstreamAndFrontierMatchFullRecomputation) {
  // Passes after a small sweep repair the loads and r_up below the movers and
  // re-check only the nodes whose cap_prime or r_up changed. Both shortcuts
  // promise exactly the full computation's result: at every pass start, r_up
  // and the loads equal a fresh full pass at the frozen x bit for bit, and
  // the frontier equals what a full seeding scan over every component yields.
  struct Config {
    const char* profile;
    int seed;
    timing::CouplingLoadMode mode;
    double per_net;
  };
  const Config configs[] = {{"c432", 3, kLocal, 0.0}, {"c499", 1, kUpstream, 0.5}};
  for (const auto& cfg : configs) {
    SCOPED_TRACE(std::string(cfg.profile) + " seed " + std::to_string(cfg.seed));
    const Problem p = build_problem(cfg.profile, cfg.seed, cfg.mode, cfg.per_net);
    const netlist::Circuit& circuit = p.circuit;
    auto mu = default_mu(circuit);
    const double beta = 0.25;
    // Per-net multipliers make the coupling coefficient differ per owner.
    std::vector<double> gamma_net(mu.size(), 0.0);
    for (std::size_t i = 0; i < gamma_net.size(); i += 5) gamma_net[i] = 0.05;
    const core::NoiseMultipliers gamma =
        cfg.per_net > 0.0 ? core::NoiseMultipliers(0.125, &gamma_net)
                          : core::NoiseMultipliers(0.125);

    core::LrsOptions options;
    options.sweep = core::SweepMode::kWorklist;
    options.warm_start = true;
    options.mode = cfg.mode;
    const double eps = options.tol / 8.0;
    auto drifted = [eps](double a, double b) {
      return std::abs(a - b) >
             eps * std::max(std::abs(b), std::numeric_limits<double>::min());
    };

    core::LrsWorkspace ws;
    std::vector<double> x(mu.size(), 1.0);
    // The frontier as the last sweep left it (a cold call starts full).
    std::vector<unsigned char> leftover(mu.size(), 1);
    // Sizes at the last pass start, and how many the sweep then moved: a
    // pass after a sweep that moved under 1% of the components repairs.
    std::vector<double> x_at_begin;
    const auto components = static_cast<long long>(circuit.num_components());
    long long last_moved = 0, checked_passes = 0, repaired_passes = 0;

    core::LrsProbe probe;
    probe.on_pass_begin = [&](int pass, const std::vector<double>& x_now,
                              const timing::LoadAnalysis& loads,
                              const std::vector<double>& r_up,
                              const std::vector<unsigned char>& pending) {
      std::vector<double> fresh_r_up;
      timing::compute_weighted_upstream(circuit, x_now, mu, fresh_r_up);
      EXPECT_EQ(r_up, fresh_r_up) << "pass " << pass;
      timing::LoadAnalysis fresh_loads;
      timing::compute_loads(circuit, p.coupling, x_now, cfg.mode, fresh_loads);
      EXPECT_EQ(loads.cap_prime, fresh_loads.cap_prime) << "pass " << pass;
      EXPECT_EQ(loads.load_in, fresh_loads.load_in) << "pass " << pass;

      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
           ++v) {
        const auto i = static_cast<std::size_t>(v);
        const double num = ws.mu_res[i] * loads.cap_prime[i];
        const double den = circuit.area_weight(v) +
                           (beta + r_up[i]) * circuit.unit_cap(v) + ws.gamma_coef[i];
        const bool expected = leftover[i] != 0 || drifted(num, ws.snap_num[i]) ||
                              drifted(den, ws.snap_den[i]);
        EXPECT_EQ(pending[i] != 0, expected) << "node " << v << " on pass " << pass;
      }
      ++checked_passes;
      if (pass > 0 && last_moved * 100 <= components) ++repaired_passes;
      x_at_begin = x_now;
    };
    probe.on_pass_end = [&](int, const std::vector<unsigned char>&) {
      leftover = ws.pending;
      last_moved = 0;
      for (std::size_t i = 0; i < x.size(); ++i) last_moved += x[i] != x_at_begin[i];
    };

    core::LrsRuntime runtime;
    runtime.probe = &probe;
    core::run_lrs(circuit, p.coupling, mu, beta, gamma, options, x, ws, runtime);
    // Resumed calls after sparse μ nudges, the shape of an OGWS iteration.
    for (int round = 0; round < 4; ++round) {
      const double f = (round % 2 == 0) ? 1.003 : 1.0 / 1.004;
      for (std::size_t i = static_cast<std::size_t>(2 + round); i < mu.size(); i += 97) {
        mu[i] *= f;
      }
      core::run_lrs(circuit, p.coupling, mu, beta, gamma, options, x, ws, runtime);
    }
    EXPECT_GT(repaired_passes, 0) << "no pass exercised the repairs";
    EXPECT_GT(checked_passes, repaired_passes);
  }
}

// ---- acceptance: the frontier stays small on a large profile ---------------

TEST(SweepWorklist, FrontierStaysSmallOnLargeProfile) {
  const Problem p = build_problem("c7552", 1, kUpstream, 0.0);
  ASSERT_GE(p.circuit.num_nodes(), 5000);
  const auto components = static_cast<long long>(p.circuit.num_components());
  const auto mu0 = default_mu(p.circuit);

  core::LrsOptions options;
  options.sweep = core::SweepMode::kWorklist;
  options.warm_start = true;
  options.mode = kUpstream;

  std::vector<long long> per_pass;
  core::LrsProbe probe;
  probe.on_pass_end = [&](int, const std::vector<unsigned char>& processed) {
    long long count = 0;
    for (const unsigned char f : processed) count += f;
    per_pass.push_back(count);
  };
  core::LrsRuntime runtime;
  runtime.probe = &probe;

  // Cold solve: the first passes sweep everything (the frontier starts
  // full), then it drains — the final third of the solve's passes must
  // reprocess < 25% of the components per pass (measured: ~3%).
  auto mu = mu0;
  std::vector<double> x(mu.size(), 1.0);
  core::LrsWorkspace ws;
  core::run_lrs(p.circuit, p.coupling, mu, 0.3, core::NoiseMultipliers(0.1),
                options, x, ws, runtime);
  ASSERT_GE(per_pass.size(), 9u);
  const std::size_t start = per_pass.size() - per_pass.size() / 3;
  long long cold_tail = 0;
  for (std::size_t k = start; k < per_pass.size(); ++k) cold_tail += per_pass[k];
  const double cold_fraction =
      static_cast<double>(cold_tail) /
      static_cast<double>(static_cast<long long>(per_pass.size() - start) *
                          components);
  EXPECT_LT(cold_fraction, 0.25)
      << cold_tail << " node evaluations over the final "
      << (per_pass.size() - start) << " of " << per_pass.size() << " passes";

  // Resumed solves (the shape of a near-converged OGWS iteration: a sparse
  // μ nudge): every pass, first included, must stay under 25% (measured:
  // ~1-2%).
  per_pass.clear();
  long long resumed_nodes = 0, resumed_passes = 0;
  for (int round = 0; round < 3; ++round) {
    const double f = (round % 2 == 0) ? 1.01 : 1.0 / 1.01;
    for (std::size_t i = 7; i < mu.size(); i += 97) mu[i] *= f;
    const auto stats = core::run_lrs(p.circuit, p.coupling, mu, 0.3,
                                     core::NoiseMultipliers(0.1), options, x,
                                     ws, runtime);
    resumed_nodes += stats.nodes_processed;
    resumed_passes += std::max(stats.passes, 1);
  }
  for (const long long count : per_pass) {
    EXPECT_LT(count, components / 4) << "a resumed pass swept " << count
                                     << " of " << components << " components";
  }
  const double resumed_fraction =
      static_cast<double>(resumed_nodes) /
      static_cast<double>(resumed_passes * components);
  EXPECT_LT(resumed_fraction, 0.25)
      << resumed_nodes << " node evaluations over " << resumed_passes
      << " resumed passes";
}

// ---- option surface --------------------------------------------------------

TEST(SweepWorklist, OptionsRoundTripAndValidate) {
  EXPECT_STREQ(core::sweep_mode_name(core::SweepMode::kDense), "dense");
  EXPECT_STREQ(core::sweep_mode_name(core::SweepMode::kWorklist), "worklist");

  // Worklist is the default everywhere FlowOptions{} reaches; dense stays
  // selectable as the exact reference.
  EXPECT_EQ(core::FlowOptions{}.ogws.lrs.sweep, core::SweepMode::kWorklist);
  core::FlowOptions dense;
  dense.ogws.lrs.sweep = core::SweepMode::kDense;
  const api::Status ok = api::validate_options(dense);
  ASSERT_TRUE(ok.ok()) << ok.message();
}

}  // namespace
