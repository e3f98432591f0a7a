// The one-sweep LRS (core::run_lrs, docs/ARCHITECTURE.md §One-sweep LRS):
// each pass walks the components forward, computing R_i from sizes set
// earlier in the same pass and resizing at once, and a reverse load pass
// closes it (C' alone unless the pass closes the call). The workspace
// carries the loads of the x a call returned into the next call. These
// tests pin down what that promises:
//   - the loads handed back equal a fresh load pass bit for bit, a call
//     that reuses them returns exactly what a fresh workspace would, and
//     every call returns what a full load pass after every walk returns;
//   - at the returned x every component is stationary within tol against
//     fresh analyses, under the total and per-net γ;
//   - a call handed an edited x re-converges to the same fixpoint;
//   - the clamp shortcut returns what the sqrt path returns;
//   - whole OGWS runs on it return the recorded rows, across profiles, noise
//     bounds and both noise-bound shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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
#include "util/rng.hpp"

namespace {

using namespace lrsizer;

struct Problem {
  netlist::Circuit circuit;
  layout::CouplingSet coupling;
};

/// Elaborated, channel-routed generator instance at uniform size 1.
Problem build_problem(const std::string& profile, int seed) {
  const auto spec = netlist::spec_for_profile(profile, seed);
  const auto logic = netlist::generate_circuit(spec);
  auto elab = netlist::elaborate(logic, netlist::TechParams{}, spec.elab);
  const auto channels = layout::assign_channels(elab.circuit, elab.net_of_node, logic);
  auto coupling = layout::build_coupling_set(elab.circuit, channels.channels,
                                             layout::NeighborOptions{});
  elab.circuit.set_uniform_size(1.0);
  return Problem{std::move(elab.circuit), std::move(coupling)};
}

/// Bounds derived at the problem's uniform size 1 with noise factor
/// `noise`, and a per-net noise share when `per_net` > 0.
core::Bounds bounds_for(const Problem& p, double noise, double per_net) {
  core::BoundFactors factors;
  factors.noise = noise;
  factors.per_net_noise = per_net;
  return core::derive_bounds(p.circuit, p.coupling, p.circuit.sizes(), factors);
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

/// Per-net multipliers on every fifth owner, so γ_ij differs per pair.
std::vector<double> sparse_gamma_net(std::size_t n) {
  std::vector<double> gamma_net(n, 0.0);
  for (std::size_t i = 0; i < n; i += 5) gamma_net[i] = 0.05;
  return gamma_net;
}

/// Scale scattered μ entries, as one OGWS dual step does.
void nudge(std::vector<double>& mu, int round) {
  const double f = (round % 2 == 0) ? 1.01 : 1.0 / 1.004;
  for (std::size_t i = static_cast<std::size_t>(2 + round); i < mu.size(); i += 37) mu[i] *= f;
}

/// A workspace whose next call resumes from the x it is handed: a fresh
/// workspace's first call starts at the lower bounds, so one short call on a
/// scratch x spends it.
core::LrsWorkspace primed_workspace(const Problem& p) {
  core::LrsWorkspace ws;
  std::vector<double> scratch = p.circuit.sizes();
  const std::vector<double> mu(scratch.size(), 0.0);
  core::LrsOptions one_pass;
  one_pass.max_passes = 1;
  core::run_lrs(p.circuit, p.coupling, mu, 0.0, 0.0, one_pass, scratch, ws);
  return ws;
}

/// run_lrs with a full compute_loads after every forward walk, as the 0.18
/// build ran it: the reference for the passes that write only C'. Starts
/// from the lower bounds when `cold`, as a fresh workspace's first call
/// does, and from the incoming x otherwise.
core::LrsStats full_load_pass_lrs(const Problem& p, const std::vector<double>& mu, double beta,
                                  const core::NoiseMultipliers& gamma,
                                  const core::LrsOptions& options, bool cold,
                                  std::vector<double>& x) {
  const netlist::Circuit& circuit = p.circuit;
  std::vector<double> mu_res(x.size(), 0.0);
  std::vector<double> gamma_coef(x.size(), 0.0);
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (cold) x[i] = circuit.lower_bound(v);
    mu_res[i] = mu[i] * circuit.unit_res(v);
    for (const auto& nb : p.coupling.neighbors(v)) {
      gamma_coef[i] +=
          gamma.for_owner(p.coupling.pairs()[static_cast<std::size_t>(nb.pair)].a) * nb.c_hat;
    }
  }
  timing::LoadAnalysis loads;
  timing::compute_loads(circuit, p.coupling, x, loads);
  std::vector<double> r_up(x.size(), 0.0);
  core::LrsStats stats;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    double max_rel_change = 0.0;
    for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      timing::compute_node_upstream(circuit, x, mu, r_up, v);
      double couple_nbr = 0.0;
      for (const auto& nb : p.coupling.neighbors(v)) {
        couple_nbr += nb.c_hat * x[static_cast<std::size_t>(nb.other)];
      }
      const double next = core::clamped_resize(
          mu_res[i] * (loads.cap_prime[i] + couple_nbr),
          circuit.area_weight(v) + (beta + r_up[i]) * circuit.unit_cap(v) + gamma_coef[i],
          circuit.lower_bound(v), circuit.upper_bound(v));
      max_rel_change = std::max(max_rel_change, std::abs(next - x[i]) / x[i]);
      x[i] = next;
    }
    timing::compute_loads(circuit, p.coupling, x, loads);
    stats.passes = pass + 1;
    stats.max_rel_change = max_rel_change;
    if (max_rel_change < options.tol) break;
  }
  return stats;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(LrsSweep, HandedBackLoadsAreFreshAndResumedCallsMatchAFreshWorkspace) {
  // After every call of a sequence (a cold one cut by max_passes, then μ
  // nudges), the loads the workspace hands back equal a fresh compute_loads
  // at the returned x, bit for bit, although only a call's last pass writes
  // C_i. A resumed call starts from those loads instead of a load pass, so
  // it must return exactly what another workspace resuming from the same x
  // returns: same sizes, same pass count. Every call also returns what a
  // full load pass after every walk returns: same sizes, passes and
  // max_rel_change.
  const Problem p = build_problem("c499", 1);
  auto mu = default_mu(p.circuit);
  const auto gamma_net = sparse_gamma_net(mu.size());
  const core::NoiseMultipliers gamma(0.125, &gamma_net);
  core::LrsOptions options;

  core::LrsWorkspace ws;
  std::vector<double> x = p.circuit.sizes();
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("call " + std::to_string(round));
    if (round > 0) nudge(mu, round);
    core::LrsOptions call = options;
    call.max_passes = round == 0 ? 3 : options.max_passes;
    const std::vector<double> x_in = x;
    const auto stats = core::run_lrs(p.circuit, p.coupling, mu, 0.25, gamma, call, x, ws);
    EXPECT_GE(stats.passes, 1);
    if (round == 0) {  // the cut: the last pass did not meet S5
      EXPECT_EQ(stats.passes, 3);
      EXPECT_GE(stats.max_rel_change, options.tol);
    }

    timing::LoadAnalysis fresh;
    timing::compute_loads(p.circuit, p.coupling, x, fresh);
    EXPECT_EQ(ws.loads.cap_delay, fresh.cap_delay);
    EXPECT_EQ(ws.loads.cap_prime, fresh.cap_prime);
    EXPECT_EQ(ws.loads.load_in, fresh.load_in);

    std::vector<double> x_reference = x_in;
    const auto reference_stats = full_load_pass_lrs(p, mu, 0.25, gamma, call,
                                                    /*cold=*/round == 0, x_reference);
    EXPECT_EQ(x_reference, x);
    EXPECT_EQ(reference_stats.passes, stats.passes);
    EXPECT_TRUE(same_bits(reference_stats.max_rel_change, stats.max_rel_change))
        << reference_stats.max_rel_change << " vs " << stats.max_rel_change;

    if (round == 0) continue;  // the cold call starts at L, not at x_in
    core::LrsWorkspace other_ws = primed_workspace(p);
    std::vector<double> x_other = x_in;
    const auto other_stats =
        core::run_lrs(p.circuit, p.coupling, mu, 0.25, gamma, options, x_other, other_ws);
    EXPECT_EQ(x_other, x);
    EXPECT_EQ(other_stats.passes, stats.passes);
  }
}

TEST(LrsSweep, EveryComponentIsStationaryOnRandomizedCircuits) {
  // At the returned x, Theorem 5's resize against a fresh load pass and a
  // fresh R moves no component by tol or more: the S5 stop certifies the
  // whole circuit, not only the components the last pass happened to move.
  for (const int seed : {3, 5, 9}) {
    for (const bool per_net : {false, true}) {
      SCOPED_TRACE("generator seed " + std::to_string(seed) +
                   (per_net ? " per-net" : " total"));
      const Problem p = build_problem("c432", seed);
      auto mu = default_mu(p.circuit);
      const auto gamma_net = sparse_gamma_net(mu.size());
      const core::NoiseMultipliers gamma =
          per_net ? core::NoiseMultipliers(0.125, &gamma_net) : core::NoiseMultipliers(0.125);
      core::LrsOptions options;
      core::LrsWorkspace ws;
      std::vector<double> x = p.circuit.sizes();
      for (int round = 0; round < 3; ++round) {
        if (round > 0) nudge(mu, round);
        const auto stats =
            core::run_lrs(p.circuit, p.coupling, mu, 0.25, gamma, options, x, ws);
        ASSERT_LT(stats.max_rel_change, options.tol) << "call " << round;

        timing::LoadAnalysis loads;
        timing::compute_loads(p.circuit, p.coupling, x, loads);
        std::vector<double> r_up;
        timing::compute_weighted_upstream(p.circuit, x, mu, r_up);
        long long interior = 0;
        for (netlist::NodeId v = p.circuit.first_component(); v < p.circuit.end_component();
             ++v) {
          const auto i = static_cast<std::size_t>(v);
          interior += x[i] > p.circuit.lower_bound(v) && x[i] < p.circuit.upper_bound(v);
          const double target = std::clamp(
              core::optimal_resize(p.circuit, p.coupling, mu, 0.25, gamma, x, loads, r_up, v),
              p.circuit.lower_bound(v), p.circuit.upper_bound(v));
          EXPECT_LT(std::abs(target - x[i]) / x[i], options.tol)
              << "node " << v << " after call " << round << ": x " << x[i] << " -> "
              << target;
        }
        // Not vacuous: a good share of the components sit off their bounds.
        EXPECT_GT(interior * 10, static_cast<long long>(p.circuit.num_components()))
            << interior << " of " << p.circuit.num_components() << " interior";
      }
    }
  }
}

TEST(LrsSweep, EditedSizesReconvergeToTheSameFixpoint) {
  // A caller may hand the workspace back an x it edited. The call cannot
  // reuse the loads of the x it returned, so it starts with a load pass at
  // the edited x: it returns exactly what another workspace resuming there
  // returns, and that is the fixpoint the unedited solve reached.
  const Problem p = build_problem("c880", 2);
  const auto mu = default_mu(p.circuit);
  const core::NoiseMultipliers gamma(0.125);
  core::LrsOptions options;
  options.tol = 1e-9;
  options.max_passes = 500;
  core::LrsWorkspace ws;
  std::vector<double> x = p.circuit.sizes();
  core::run_lrs(p.circuit, p.coupling, mu, 0.25, gamma, options, x, ws);
  const std::vector<double> fixpoint = x;

  // Handed back unchanged, the fixpoint holds within the first pass.
  const auto again = core::run_lrs(p.circuit, p.coupling, mu, 0.25, gamma, options, x, ws);
  EXPECT_EQ(again.passes, 1);

  util::Rng rng(29);
  for (netlist::NodeId v = p.circuit.first_component(); v < p.circuit.end_component(); ++v) {
    if (!rng.bernoulli(0.2)) continue;
    auto& size = x[static_cast<std::size_t>(v)];
    size = std::clamp(size * rng.uniform(0.5, 2.0), p.circuit.lower_bound(v),
                      p.circuit.upper_bound(v));
  }
  core::LrsWorkspace other_ws = primed_workspace(p);
  std::vector<double> x_other = x;
  const auto edited = core::run_lrs(p.circuit, p.coupling, mu, 0.25, gamma, options, x, ws);
  const auto other =
      core::run_lrs(p.circuit, p.coupling, mu, 0.25, gamma, options, x_other, other_ws);
  EXPECT_GT(edited.passes, 1);
  EXPECT_EQ(edited.passes, other.passes);
  EXPECT_EQ(x, x_other);
  for (netlist::NodeId v = p.circuit.first_component(); v < p.circuit.end_component(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    EXPECT_NEAR(x[i], fixpoint[i], 1e-6 * fixpoint[i]) << "node " << v;
  }
}

TEST(LrsSweep, OgwsRunsMatchTheRecordedRowsAcrossProfilesModesAndBounds) {
  // Whole OGWS runs on the one sweep, over ISCAS profiles under two noise
  // bounds (factor 0.1 and 0.2) and both bound shapes plus seeded generator
  // variants, pinned to recorded rows: the same verdict, iteration counts
  // within 5, area within 1e-4 and violation within 1e-3. The noise-0.1 rows
  // were recorded from the 0.17 build (the one sweep with the
  // dual-following step scale); until 0.16 they were the dense Gauss-Seidel
  // sweep's, which the one sweep matched within these tolerances. The three
  // unconverged rows at generator seed 1 were re-recorded from the 0.21
  // build, whose LRS stops at tol 1e-2 instead of 1e-4: their areas moved
  // 1.0-1.6e-4, their iteration counts not at all. The noise-0.1 bounds
  // derived at uniform size 1 are out of reach, so those runs end at the
  // weak-duality stop, unconverged. The noise-0.2 rows, recorded from the
  // 0.21 build, converge, so the KKT check below runs. Every iteration's LRS
  // evaluates every component on every pass, and a converged run's sizes
  // meet the KKT primal conditions under its own best-dual multipliers.
  struct Config {
    const char* profile;
    int seed;
    double noise;
    double per_net;
    bool converged;
    int iterations;
    double area;
    double max_violation;
  };
  const Config configs[] = {
      {"c432", 1, 0.1, 0.0, false, 19, 13739.265900697534, 0.07268773487951527},
      {"c432", 1, 0.1, 0.5, false, 19, 13841.582363882846, 0.071157052351417158},
      {"c432", 1, 0.2, 0.0, true, 14, 3211.2281657842072, 0.0095584102085486591},
      {"c432", 1, 0.2, 0.5, true, 13, 3197.1547106727858, 0.0089379101001062812},
      {"c499", 1, 0.1, 0.0, false, 14, 30853.14485708651, 0.079227893765785595},
      {"c499", 1, 0.2, 0.5, true, 47, 7332.3635951162987, 0.00095692367983859843},
      {"c432", 7, 0.2, 0.0, true, 23, 2562.1446446428731, 0.0},
      {"c499", 13, 0.1, 0.5, false, 20, 28248.087481692703, 0.056487142067366901},
  };
  for (const auto& cfg : configs) {
    SCOPED_TRACE(std::string(cfg.profile) + " seed " + std::to_string(cfg.seed) + " noise " +
                 std::to_string(cfg.noise) + " per_net " + std::to_string(cfg.per_net));
    const Problem p = build_problem(cfg.profile, cfg.seed);
    const core::Bounds bounds = bounds_for(p, cfg.noise, cfg.per_net);
    core::OgwsOptions options;
    options.max_iterations = 60;
    core::OgwsControl control;
    control.capture_warm_start = true;
    const auto result = core::run_ogws(p.circuit, p.coupling, bounds, options, control);

    EXPECT_EQ(result.converged, cfg.converged);
    EXPECT_LE(std::abs(result.iterations - cfg.iterations), 5)
        << "recorded " << cfg.iterations << " vs " << result.iterations;
    EXPECT_LE(std::abs(result.area - cfg.area), 1e-4 * cfg.area)
        << "area recorded " << cfg.area << " vs " << result.area;
    EXPECT_LE(std::abs(result.max_violation - cfg.max_violation),
              1e-3 * std::max(1.0, cfg.max_violation));

    ASSERT_FALSE(result.history.empty());
    const auto components = static_cast<long long>(p.circuit.num_components());
    for (const auto& it : result.history) {
      EXPECT_GE(it.lrs_passes, 1) << "iteration " << it.k;
      EXPECT_EQ(it.lrs_nodes_processed, it.lrs_passes * components) << "iteration " << it.k;
    }

    if (!cfg.converged) continue;
    ASSERT_FALSE(result.warm.empty());
    core::MultiplierState m(p.circuit);
    m.lambda = result.warm.lambda;
    m.beta = result.warm.beta;
    m.gamma = result.warm.gamma;
    m.gamma_net = result.warm.gamma_net;
    const auto kkt = core::check_kkt(p.circuit, p.coupling, m, bounds, result.sizes);
    EXPECT_LE(kkt.flow, 1e-9);
    EXPECT_LE(kkt.primal_delay, 0.011);
    EXPECT_LE(kkt.primal_power, 0.011);
    EXPECT_LE(kkt.primal_noise, 0.011);
  }
}

/// Theorem 5's resize without the shortcut: the sqrt path alone.
double sqrt_path(double numerator, double denominator, double lower, double upper) {
  return std::clamp(std::sqrt(std::max(numerator, 0.0) / denominator), lower, upper);
}

TEST(LrsSweep, ClampShortcutAgreesWithTheSqrtPath) {
  // clamped_resize returns L without the sqrt when the numerator is at or
  // below L²·den·(1 − 1e-12). Over random inputs — most of them straddling
  // that threshold within a few hundred ulp, the rest spread over the whole
  // exponent range, zero and negative numerators included — it returns the
  // sqrt path's value bit for bit, so it never returns L where the sqrt
  // path would not.
  util::Rng rng(41);
  long long shortcuts = 0;
  long long near_misses = 0;
  auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  for (int trial = 0; trial < 500000; ++trial) {
    // Sizes and denominators as LRS sees them, and every fifth trial an
    // extreme L whose square leaves the normal range or an extreme
    // denominator whose product with it does.
    const bool extreme = trial % 5 == 4;
    const double lower = extreme ? log_uniform(1e-170, 1e-140) : log_uniform(1e-3, 10.0);
    const double upper = lower * log_uniform(1.0, 1e3);
    const double denominator = extreme ? log_uniform(1e-30, 1e300) : log_uniform(1e-30, 1e30);
    double numerator = 0.0;
    switch (extreme ? trial / 5 % 2 : trial % 5) {
      case 0: {
        // Around the shortcut's threshold, where its margin matters.
        const double threshold = lower * lower * denominator * (1.0 - 1e-12);
        numerator = threshold * (1.0 + rng.uniform(-1e-13, 1e-13));
        break;
      }
      case 1: {
        // Around L²·den itself, where √(num/den) crosses L.
        numerator = lower * lower * denominator * (1.0 + rng.uniform(-2e-12, 2e-12));
        break;
      }
      case 2:
        numerator = log_uniform(1e-300, 1e300);
        break;
      default:
        numerator = rng.bernoulli(0.5) ? 0.0 : -log_uniform(1e-20, 1e20);
        break;
    }
    const double got = core::clamped_resize(numerator, denominator, lower, upper);
    const double want = sqrt_path(numerator, denominator, lower, upper);
    ASSERT_TRUE(same_bits(got, want))
        << std::hexfloat << "num " << numerator << " den " << denominator << " L " << lower
        << " U " << upper << ": shortcut " << got << ", sqrt path " << want;
    if (numerator <= lower * lower * denominator * (1.0 - 1e-12)) ++shortcuts;
    if (want == lower && numerator > lower * lower * denominator * (1.0 - 1e-12)) ++near_misses;
  }
  // Not vacuous: the shortcut fired often, and often left pinned results to
  // the sqrt path.
  EXPECT_GT(shortcuts, 50000);
  EXPECT_GT(near_misses, 10000);
}

}  // namespace
