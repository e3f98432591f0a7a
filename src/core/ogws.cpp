#include "core/ogws.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/lagrangian.hpp"
#include "obs/trace.hpp"
#include "timing/arrival.hpp"
#include "timing/metrics.hpp"
#include "util/assert.hpp"
#include "util/memtrack.hpp"
#include "util/timer.hpp"

namespace lrsizer::core {

namespace {

double relative_violation(double value, double bound) {
  LRSIZER_ASSERT(bound > 0.0);
  return (value - bound) / bound;
}

/// A4's base step at iteration k: step0/k^¼, which keeps Figure 9's two
/// conditions, ρ_k → 0 and Σρ_k = ∞; run_ogws multiplies it by the run's
/// step scale (kStepGrowth). A √k decay spends its tail proving, not
/// improving: under it c6288's area moved 1.2% between k = 50 and the cap
/// of 500, where it stopped uncertified. OGWS iterations over the ten
/// Table-1 profiles at default options (generator seed 1) with the scale
/// held at 1, by decay exponent p: ½ 1279 (c6288 capped), 0.35
/// 580, 0.3 474, ¼ 395 (all ten certified), 0.2 337, 0 (constant) 204.
/// Over generator seeds 1-5, ¼ took 0.31-0.33× the √k iterations with every
/// area within 0.2%. A constant step fails the c17 end-to-end tests. With s
/// held at 1, 0.2 left a seeded request above 1.5× its cold count at both
/// seeded factors tried (2 and 2.5) and ¼ none. With the step scale ¼ takes
/// 230 and 0.2 208, but over the 110 seeded requests kSeededStepFactor is
/// measured on 0.2 takes 1756 iterations to ¼'s 1702 and leaves two above
/// 1.5× cold to ¼'s one, so ¼ stays.
double step_size(double step0, int k) {
  return step0 / std::sqrt(std::sqrt(static_cast<double>(k)));
}

/// Step factor of a run that starts from seeded multipliers: ρ_k =
/// kSeededStepFactor · step0/k^¼, which keeps ρ_k → 0 and Σρ_k = ∞. A seed
/// starts with every constraint ratio within a few percent of 1, so at the
/// cold ρ the multiplicative step barely moves log λ (a cold run's ratios
/// start clamped at 20). Measured over perfbench's 12 serve_mix base
/// circuits, with two warm and three 1% op-flip ECO requests each (warm 0.11
/// / warm 0.12 / ECO iterations; cold runs 500 / 341 / 1200): factor 2 gave
/// 283 / 31 / 797, 2.5 gave 228 / 27 / 682 and 3 gave 289 / 71 / 751 with
/// one ECO request above 1.5× its cold count. On the ten Table-1 profiles as
/// bases (cold 472 / 342 / 1272), 2 and 3 each left one request above 1.5×
/// cold and 2.5 none.
constexpr double kSeededStepFactor = 2.5;

/// The per-run step scale s behind ρ_k = s·step0/k^¼ (seeded runs keep
/// kSeededStepFactor on top). s starts at 1; after each iteration from the
/// second on it grows by kStepGrowth while that iteration's dual is above
/// the previous iteration's and shrinks by kStepShrink otherwise, clamped to
/// [kMinStepScale, kMaxStepScale]. Because s stays inside that interval,
/// ρ_k → 0 and Σρ_k = ∞ still hold. A climbing dual says the step is short
/// of the ascent direction's reach, a falling one that it overshoots; a
/// fixed schedule cannot see either. Over the ten Table-1 profiles at
/// default options (generator seed 1) the rule cuts OGWS iterations from
/// 395 to 230 (c6288 112 → 54) with every profile still certified
/// (docs/ARCHITECTURE.md, decision D6).
constexpr double kStepGrowth = 1.05;
constexpr double kStepShrink = 0.7;
constexpr double kMinStepScale = 0.1;
constexpr double kMaxStepScale = 2.0;

}  // namespace

long long dual_ascent_step(const netlist::Circuit& circuit,
                           const layout::CouplingSet& coupling, const Bounds& bounds,
                           const OgwsOptions& options,
                           const timing::ArrivalAnalysis& arrivals,
                           const std::vector<double>& x, double cap, double noise,
                           double rho, const DualScales& scales,
                           MultiplierState& multipliers, std::vector<double>* mu) {
  const bool per_net = bounds.per_net_enabled();
  const netlist::NodeId sink = circuit.sink();
  const auto& arrival = arrivals.arrival;
  const auto& delay = arrivals.delay;
  long long pow_calls = 0;

  // λ: A4's step inside the reverse walk that also clamps, projects (A5) and
  // sums μ (A2); a node's step reads only the arrival analysis.
  if (options.step_rule == StepRule::kSubgradient) {
    multipliers.step_and_project(
        circuit,
        [&](netlist::NodeId v, netlist::NodeId from, double& lambda) {
          const auto i = static_cast<std::size_t>(v);
          const auto j = static_cast<std::size_t>(from);
          double slack = 0.0;  // in seconds
          if (v == sink) {
            slack = arrival[j] - bounds.delay_s;
          } else if (circuit.is_driver(v)) {
            slack = delay[i] - arrival[i];
          } else {
            slack = arrival[j] + delay[i] - arrival[i];
          }
          lambda += rho * scales.lambda_scale * (slack / bounds.delay_s);
        },
        mu);
    multipliers.beta += rho * scales.beta_scale * relative_violation(cap, bounds.cap_f);
    multipliers.gamma +=
        rho * scales.gamma_scale * relative_violation(noise, bounds.noise_f);
    if (per_net) {
      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        const double bound_i = bounds.per_net_noise_f[i];
        if (bound_i <= 0.0) continue;
        multipliers.gamma_net[i] +=
            rho * (scales.area_ref / bound_i) *
            relative_violation(coupling.owned_noise_linear(v, x), bound_i);
      }
    }
  } else {
    // Multiplicative: every multiplier scales by (its constraint ratio)^ρ.
    // Ratios > 1 (violated) inflate, < 1 (slack) decay; positivity is
    // automatic. Driver edges use D_i/a_i (== 1 by construction).
    // A ratio of exactly 1 skips pow(): pow(1, ρ) is exactly 1 and λ·1 = λ,
    // so the skip keeps every bit. It holds on every driver edge and on each
    // node's critical fanin (a_i is computed as a_j + D_i), which is most
    // edges; there the numerator equals the denominator, so the divide is
    // skipped too (a finite nonzero y/y is exactly 1).
    auto pow_clamped = [rho, &pow_calls](double ratio) {
      ++pow_calls;
      return std::pow(std::clamp(ratio, 0.05, 20.0), rho);
    };
    multipliers.step_and_project(
        circuit,
        [&](netlist::NodeId v, netlist::NodeId from, double& lambda) {
          const auto j = static_cast<std::size_t>(from);
          if (v == sink) {
            const double ratio = arrival[j] / bounds.delay_s;
            if (ratio != 1.0) lambda *= pow_clamped(ratio);
          } else if (!circuit.is_driver(v)) {
            const auto i = static_cast<std::size_t>(v);
            const double reach = arrival[j] + delay[i];
            const double arrival_i = std::max(arrival[i], 1e-30);
            if (reach != arrival_i) lambda *= pow_clamped(reach / arrival_i);
          }
        },
        mu);
    // β and γ start at 0; seed them from their scale the first time their
    // constraint is violated, then update multiplicatively.
    const double cap_ratio = cap / bounds.cap_f;
    const double noise_ratio = noise / bounds.noise_f;
    if (multipliers.beta <= 0.0 && cap_ratio > 1.0) {
      multipliers.beta = 1e-3 * scales.beta_scale;
    }
    if (multipliers.gamma <= 0.0 && noise_ratio > 1.0) {
      multipliers.gamma = 1e-3 * scales.gamma_scale;
    }
    multipliers.beta *= pow_clamped(cap_ratio);
    multipliers.gamma *= pow_clamped(noise_ratio);
    if (per_net) {
      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        const double bound_i = bounds.per_net_noise_f[i];
        if (bound_i <= 0.0) continue;
        const double ratio = coupling.owned_noise_linear(v, x) / bound_i;
        double& g = multipliers.gamma_net[i];
        if (g <= 0.0 && ratio > 1.0) g = 1e-3 * scales.area_ref / bound_i;
        g *= pow_clamped(ratio);
      }
    }
  }

  // Nonnegativity of the rest (the walk clamped λ).
  multipliers.beta = std::max(multipliers.beta, 0.0);
  multipliers.gamma = std::max(multipliers.gamma, 0.0);
  for (double& g : multipliers.gamma_net) g = std::max(g, 0.0);
  return pow_calls;
}

OgwsResult run_ogws(const netlist::Circuit& circuit,
                    const layout::CouplingSet& coupling, const Bounds& bounds,
                    const OgwsOptions& options, const OgwsControl& control) {
  LRSIZER_ASSERT(bounds.delay_s > 0.0 && bounds.cap_f > 0.0 && bounds.noise_f > 0.0);
  const OgwsWarmStart* warm = control.warm_start;
  if (warm != nullptr && warm->empty()) warm = nullptr;
  // A4's step size. Seeded multipliers step larger (kSeededStepFactor);
  // cold runs and sizes-only seeds step at s·step0/k^¼, s the step scale.
  const double step0 = warm != nullptr && warm->seeds_multipliers()
                           ? kSeededStepFactor * options.step0
                           : options.step0;

  const double area_ref = std::max(timing::total_area(circuit, circuit.sizes()), 1e-12);
  // Σ α_i·U_i: the area with every component at its upper size bound, the
  // most any sizing in the box can cost.
  double area_max = 0.0;
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    area_max += circuit.area_weight(v) * circuit.upper_bound(v);
  }

  // Normalization scales: multipliers live at (objective / constraint-unit)
  // magnitude, subgradients are used in bound-relative form.
  const DualScales scales{area_ref, area_ref / bounds.delay_s,
                          area_ref / bounds.cap_f, area_ref / bounds.noise_f};
  const double lambda_scale = scales.lambda_scale;

  // A1: initial multipliers (λ flow-conserving at λ-scale), or the prior
  // run's best-dual multipliers when warm-starting.
  MultiplierState multipliers(circuit);
  multipliers.init_default(circuit);
  for (double& v : multipliers.lambda) v *= lambda_scale;
  if (warm != nullptr && warm->seeds_multipliers()) {
    LRSIZER_ASSERT_MSG(warm->lambda.size() == multipliers.lambda.size(),
                       "warm-start lambda does not match the circuit's edge count");
    multipliers.lambda = warm->lambda;
    multipliers.beta = warm->beta;
    multipliers.gamma = warm->gamma;
  }

  // Distributed per-net crosstalk bounds (paper §4.1 extension): one extra
  // multiplier per owning wire, driven by the same update rule.
  const bool per_net = bounds.per_net_enabled();
  if (per_net) {
    LRSIZER_ASSERT(bounds.per_net_noise_f.size() ==
                   static_cast<std::size_t>(circuit.num_nodes()));
    multipliers.gamma_net.assign(static_cast<std::size_t>(circuit.num_nodes()), 0.0);
    if (warm != nullptr && !warm->gamma_net.empty()) {
      LRSIZER_ASSERT_MSG(warm->gamma_net.size() == multipliers.gamma_net.size(),
                         "warm-start gamma_net does not match the circuit");
      multipliers.gamma_net = warm->gamma_net;
    }
  }
  auto noise_duals = [&]() {
    return per_net ? NoiseMultipliers(multipliers.gamma, &multipliers.gamma_net)
                   : NoiseMultipliers(multipliers.gamma);
  };

  std::vector<double> x = (warm != nullptr && !warm->sizes.empty()) ? warm->sizes
                                                                    : circuit.sizes();
  LRSIZER_ASSERT(x.size() == static_cast<std::size_t>(circuit.num_nodes()));
  // A2 for the first iteration; each dual step's walk sums the next μ.
  std::vector<double> mu;
  multipliers.compute_mu(circuit, mu);
  LrsWorkspace workspace;
  timing::ArrivalAnalysis arrivals;

  // Max relative violation over every relaxed constraint at iterate `xs`.
  auto max_rel_violation = [&](const std::vector<double>& xs, double delay,
                               double cap, double noise) -> double {
    double viol_per_net = 0.0;
    if (per_net) {
      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
           ++v) {
        const auto i = static_cast<std::size_t>(v);
        if (bounds.per_net_noise_f[i] <= 0.0) continue;
        viol_per_net = std::max(
            viol_per_net, relative_violation(coupling.owned_noise_linear(v, xs),
                                             bounds.per_net_noise_f[i]));
      }
    }
    return std::max({relative_violation(delay, bounds.delay_s),
                     relative_violation(cap, bounds.cap_f),
                     relative_violation(noise, bounds.noise_f), viol_per_net, 0.0});
  };

  // Area + max violation of `xs`. The loads are its own: workspace.loads
  // belongs to run_lrs, which reuses them when handed its last x back.
  auto evaluate_sizes = [&](const std::vector<double>& xs) {
    timing::LoadAnalysis loads;
    timing::compute_loads(circuit, coupling, xs, options.lrs.mode, loads);
    timing::compute_arrivals(circuit, xs, loads, arrivals);
    const double area = timing::total_area(circuit, xs);
    const double violation =
        max_rel_violation(xs, arrivals.critical_delay, timing::total_cap(circuit, xs),
                          coupling.noise_linear(xs));
    return std::pair<double, double>(area, violation);
  };

  OgwsResult result;
  result.sizes = x;
  // Certificate tracking: the best dual value is a monotone lower bound on
  // the optimal area; the best feasible iterate is a monotone upper bound.
  // A7 stops when they agree to gap_tol — robust against the oscillation of
  // individual subgradient iterates.
  double best_feasible_area = std::numeric_limits<double>::infinity();
  double best_dual = -std::numeric_limits<double>::infinity();
  double best_violation = std::numeric_limits<double>::infinity();
  bool evaluated_initial = false;
  // A4's step scale (kStepGrowth) and the dual it compares against.
  double step_scale = 1.0;
  double previous_dual = 0.0;

  // Traced runs snapshot x before each LRS call so the iteration span can
  // report how many nodes the sweep moved. The buffer lives outside the loop
  // (assignment reuses its capacity) and is never touched when tracing is
  // off — the disabled path stays a pointer test.
  std::vector<double> x_traced;
  std::uint64_t span_begin_us = 0;
  // One span per iteration, closing at the same points the observer fires.
  // The iteration metadata mirrors the observer's iterate plus the traced
  // nodes-moved count (x vs. the pre-LRS snapshot), `rho`, the step applied
  // after the iteration (0 on a stopping one, which takes none), and
  // `step_scale`, the s behind it.
  auto record_iteration_span = [&](const OgwsIterate& it, double rho) {
    if (control.trace == nullptr) return;
    std::size_t moved = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] != x_traced[i]) ++moved;
    }
    control.trace->record("ogws_iteration", "ogws", span_begin_us,
                          control.trace->now_us(),
                          {{"k", static_cast<double>(it.k)},
                           {"dual", it.dual},
                           {"max_kkt_violation", it.max_violation},
                           {"nodes_moved", static_cast<double>(moved)},
                           {"lrs_passes", static_cast<double>(it.lrs_passes)},
                           {"rel_gap", it.rel_gap},
                           {"rho", rho},
                           {"step_scale", step_scale}});
  };

  if (warm != nullptr && !warm->sizes.empty()) {
    // Evaluate the warm iterate as the incumbent primal candidate. Nothing
    // is trusted from the snapshot: area and violations are recomputed under
    // the *current* bounds, so the incumbent is exactly as good as the warm
    // sizes are for this problem instance.
    const auto [area, violation] = evaluate_sizes(x);
    if (violation <= options.feas_tol) {
      best_feasible_area = area;
    } else {
      best_violation = violation;
    }
    result.area = area;
    result.max_violation = violation;
    // No certificate yet (overwritten by the first completed iteration).
    result.rel_gap = std::numeric_limits<double>::infinity();
    evaluated_initial = true;
  }

  for (int k = 1; k <= options.max_iterations; ++k) {
    if (control.stop.stop_requested()) {
      result.cancelled = true;
      if (!evaluated_initial && result.iterations == 0) {
        // Stopped before any iterate was produced: evaluate the starting
        // sizes so the returned metric fields describe the returned sizes
        // (the OgwsResult contract), and leave the certificate gap unknown
        // rather than a converged-looking 0.
        const auto [area, violation] = evaluate_sizes(x);
        result.area = area;
        result.max_violation = violation;
        result.rel_gap = std::numeric_limits<double>::infinity();
      }
      break;
    }
    util::WallTimer iter_timer;
    if (control.trace != nullptr) {
      span_begin_us = control.trace->now_us();
      x_traced = x;
    }

    // A3: inner minimization + arrival times of the sized circuit. run_lrs
    // hands back workspace.loads at the final x (hand-back contract in
    // lrs.hpp), so the arrival pass runs directly on it — no fresh load
    // pass here.
    const LrsStats lrs_stats =
        run_lrs(circuit, coupling, mu, multipliers.beta, noise_duals(),
                options.lrs, x, workspace, control.trace);
    timing::compute_arrivals(circuit, x, workspace.loads, arrivals);

    // Metrics of this iterate. The dual reuses the arrival analysis's Elmore
    // delays and these scalar terms instead of re-deriving any of them.
    const double area = timing::total_area(circuit, x);
    const double cap = timing::total_cap(circuit, x);
    const double noise = coupling.noise_linear(x);
    const double delay = arrivals.critical_delay;
    const double dual =
        lagrangian_value(circuit, coupling, x, mu, multipliers.sink_mu(circuit),
                         multipliers.beta, noise_duals(), bounds, arrivals,
                         LagrangianTerms{area, cap, noise});

    const double max_violation = max_rel_violation(x, delay, cap, noise);

    if (dual > best_dual) {
      best_dual = dual;
      if (control.capture_warm_start) {
        // Snapshot the multipliers that produced the best dual — the state
        // a warm-started rerun needs to reproduce this certificate in one
        // step.
        result.warm.lambda = multipliers.lambda;
        result.warm.beta = multipliers.beta;
        result.warm.gamma = multipliers.gamma;
        result.warm.gamma_net = multipliers.gamma_net;
      }
    }
    // Track the best iterate: feasible (within tolerance) with least area,
    // or — before anything feasible shows up — least violating.
    if (max_violation <= options.feas_tol) {
      if (area < best_feasible_area) {
        best_feasible_area = area;
        result.sizes = x;
        result.max_violation = max_violation;
      }
    } else if (best_feasible_area == std::numeric_limits<double>::infinity() &&
               max_violation < best_violation) {
      best_violation = max_violation;
      result.sizes = x;
      result.max_violation = max_violation;
    }

    const bool have_feasible =
        best_feasible_area < std::numeric_limits<double>::infinity();
    const double cert_gap =
        have_feasible
            ? std::max(best_feasible_area - best_dual, 0.0) / best_feasible_area
            : std::numeric_limits<double>::infinity();

    result.iterations = k;
    result.area = have_feasible ? best_feasible_area : area;
    result.dual = best_dual;
    result.rel_gap = cert_gap;
    OgwsIterate iterate{k,
                        area,
                        delay,
                        cap,
                        noise,
                        dual,
                        cert_gap,
                        max_violation,
                        lrs_stats.passes,
                        lrs_stats.nodes_processed,
                        iter_timer.seconds()};
    if (options.record_history) result.history.push_back(iterate);

    // A7: stop when the primal/dual certificates agree.
    result.converged = cert_gap <= options.gap_tol;
    // Weak duality (Theorem 4): every dual value is at most the least area
    // of a sizing that meets A0/P0/X0, and no sizing in the box costs more
    // than area_max. A dual above area_max therefore proves the bounds
    // unreachable; stop before the growing multipliers overflow. (A run with
    // a feasible iterate never gets here: its clamped gap is 0 and A7 fired.)
    result.proved_infeasible = !result.converged && best_dual > area_max;

    // A4 + A5: multiplier step, ρ_k = s·step0/k^¼, then nonnegativity + flow
    // conservation. A stopping iteration takes none.
    if (k > 1) {
      step_scale = dual > previous_dual ? std::min(kStepGrowth * step_scale, kMaxStepScale)
                                        : std::max(kStepShrink * step_scale, kMinStepScale);
    }
    previous_dual = dual;
    const bool stopping = result.converged || result.proved_infeasible;
    const double rho = stopping ? 0.0 : step_scale * step_size(step0, k);
    if (!stopping) {
      result.pow_calls += dual_ascent_step(circuit, coupling, bounds, options, arrivals, x,
                                           cap, noise, rho, scales, multipliers, &mu);
    }

    iterate.seconds = iter_timer.seconds();
    if (options.record_history) result.history.back().seconds = iterate.seconds;
    record_iteration_span(iterate, rho);
    if (control.observer) control.observer(iterate);
    if (stopping) break;
  }

  // Working-set accounting for the Table 1 "mem" column / Figure 10(a).
  result.workspace_bytes =
      multipliers.memory_bytes() + util::vector_bytes(x) + util::vector_bytes(mu) +
      util::vector_bytes(workspace.loads.cap_delay) +
      util::vector_bytes(workspace.loads.cap_prime) +
      util::vector_bytes(workspace.loads.load_in) + util::vector_bytes(workspace.r_up) +
      util::vector_bytes(workspace.mu_res) + util::vector_bytes(workspace.gamma_coef) +
      util::vector_bytes(workspace.exit_x) + util::vector_bytes(arrivals.delay) +
      util::vector_bytes(arrivals.arrival);
  return result;
}

}  // namespace lrsizer::core
