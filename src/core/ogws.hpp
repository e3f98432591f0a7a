// OGWS — Optimal Gate and Wire Sizing (paper Figure 9): maximize the
// Lagrangian dual by projected subgradient ascent on (λ, β, γ), solving the
// inner subproblem with LRS each iteration.
//
//   A1. initialize multipliers (λ flow-conserving, β = γ = 0)
//   A2. μ_i = Σ_{j∈input(i)} λ_ji
//   A3. run LRS; compute arrival times a
//   A4. subgradient step with ρ_k = s·step0/k^¼, where the run's step scale
//       s starts at 1 and after each later iteration grows 1.05× (to at most
//       2) if that iteration's dual rose and shrinks 0.7× (to at least 0.1)
//       otherwise; s ∈ [0.1, 2] keeps ρ_k → 0 and Σ ρ_k = ∞. 2.5× that when
//       the multipliers were seeded, see OgwsWarmStart:
//         λ_jm += ρ_k (a_j − A0)                    [sink edges]
//         λ_ji += ρ_k (a_j + D_i − a_i)             [component edges]
//         λ_0i += ρ_k (D_i − a_i)                   [driver edges]
//         β    += ρ_k (Σ c_i − P0)
//         γ    += ρ_k (X(x) − X0)
//   A5. clamp at 0 and project λ onto flow conservation (Theorem 3); λ's
//       A4 step, A5 and the next iteration's A2 run as one reverse walk
//   A7. stop when the duality gap Σ α_i x_i − L(x) is within the error
//       bound and the iterate is feasible within tolerance; stop unconverged
//       once the best dual exceeds Σ α_i U_i, which by weak duality
//       (Theorem 4) proves A0/P0/X0 unreachable inside the size box
//
// Normalization (docs/ARCHITECTURE.md, decision D3): the raw subgradients mix seconds, farads
// and µm²; each update is scaled by (A_ref / bound) / bound where A_ref is
// the area at the initial sizes, making all multiplier magnitudes
// commensurate with the objective. This is a pure reparametrization of the
// step sizes and preserves the ρ_k conditions.
#pragma once

#include <cstddef>
#include <functional>
#include <stop_token>
#include <vector>

#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/problem.hpp"
#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"
#include "timing/arrival.hpp"

namespace lrsizer::core {

/// Multiplier update rule for step A4.
enum class StepRule {
  /// λ += ρ_k · subgradient (normalized); the literal Figure 9 step.
  kSubgradient,
  /// λ *= (constraint ratio)^ρ_k — the multiplicative update practical LR
  /// sizers use (violated constraints inflate their multipliers by the
  /// violation ratio); converges in far fewer iterations on these problems
  /// and satisfies the same ρ_k → 0, Σρ_k = ∞ schedule.
  kMultiplicative,
};

struct OgwsOptions {
  int max_iterations = 500;
  /// A7 error bound: relative duality gap (the paper quotes "within 1%").
  double gap_tol = 0.01;
  /// Allowed relative constraint violation for an iterate to count feasible.
  double feas_tol = 0.01;
  /// ρ_k = s·step0 / k^¼ (core/ogws.cpp: step_size gives the measurement
  /// behind the exponent, kStepGrowth the rule for the run's step scale s ∈
  /// [0.1, 2], which follows the dual up and down). The multiplicative rule
  /// tolerates (and wants) aggressive steps; the additive subgradient rule
  /// prefers ~0.25. A run seeded with multipliers
  /// (OgwsWarmStart::seeds_multipliers) steps at 2.5× this schedule under
  /// either rule: its constraint ratios start near 1, so the cold step would
  /// barely move it (core/ogws.cpp, kSeededStepFactor).
  double step0 = 4.0;
  StepRule step_rule = StepRule::kMultiplicative;
  LrsOptions lrs;
  bool record_history = true;
};

struct OgwsIterate {
  int k = 0;
  double area = 0.0;
  double delay = 0.0;
  double cap = 0.0;
  double noise = 0.0;
  double dual = 0.0;        ///< L(x) — the dual lower bound at this iterate
  double rel_gap = 0.0;     ///< certificate gap so far (best primal vs best dual)
  double max_violation = 0.0;  ///< max relative constraint violation
  int lrs_passes = 0;
  /// Node evaluations the inner LRS solver performed this iteration (summed
  /// over its passes; every pass evaluates every component).
  long long lrs_nodes_processed = 0;
  double seconds = 0.0;     ///< wall time of this iteration
};

/// Normalization scales of a run (docs/ARCHITECTURE.md, decision D3),
/// derived from the reference area and the constraint bounds. Precomputed
/// once per run and shared with dual_ascent_step.
struct DualScales {
  double area_ref = 0.0;
  double lambda_scale = 0.0;  ///< area_ref / delay bound
  double beta_scale = 0.0;    ///< area_ref / cap bound
  double gamma_scale = 0.0;   ///< area_ref / noise bound
};

/// One OGWS dual step (A4 + A5): update every multiplier from the iterate's
/// constraint residuals under `options.step_rule` with step size `rho`, then
/// clamp at 0 and re-project λ onto flow conservation. λ's update, clamp and
/// projection are one reverse walk (MultiplierState::step_and_project), which
/// also writes the next iteration's μ (A2) into `mu` when it is set.
/// `arrivals` and the scalar totals `cap`/`noise` must describe the iterate
/// `x`. Exposed separately from run_ogws so the kernel bench can time it in
/// isolation. Returns the pow() calls the step made (the multiplicative
/// rule's; a ratio of exactly 1 skips its call, and the subgradient rule
/// makes none).
long long dual_ascent_step(const netlist::Circuit& circuit,
                           const layout::CouplingSet& coupling, const Bounds& bounds,
                           const OgwsOptions& options,
                           const timing::ArrivalAnalysis& arrivals,
                           const std::vector<double>& x, double cap, double noise,
                           double rho, const DualScales& scales,
                           MultiplierState& multipliers, std::vector<double>* mu = nullptr);

/// Restartable OGWS state: the sizes of a prior run's returned iterate plus
/// the multiplier vector at its best dual. Seeding a fresh run with this
/// snapshot makes iteration 1 reproduce the prior run's best primal/dual
/// certificate pair, so re-sizing under identical options re-converges in
/// one or two iterations, and under tweaked options it starts from the
/// converged neighborhood instead of the default multipliers.
///
/// Only the multipliers steer the run: LRS minimizes the relaxed Lagrangian
/// for the current (λ, β, γ), so a seed of sizes alone only adds an
/// incumbent and otherwise reproduces the cold run. A seed with λ steps at
/// 2.5·s·step0/k^¼ (OgwsOptions::step0), which is what makes warm and ECO
/// seeds converge in fewer iterations than a cold start.
struct OgwsWarmStart {
  /// Initial iterate, indexed by NodeId. Also evaluated up front as the
  /// incumbent primal candidate (feasibility + area under the *current*
  /// bounds, so a stale snapshot can never fake a certificate). Empty: start
  /// from the circuit's current sizes with no incumbent.
  std::vector<double> sizes;
  /// λ per EdgeId at the best dual seen; empty: default initialization.
  std::vector<double> lambda;
  double beta = 0.0;
  double gamma = 0.0;
  /// Per-net γ (only meaningful when the run's bounds enable per-net mode).
  std::vector<double> gamma_net;

  bool empty() const { return sizes.empty() && lambda.empty(); }
  /// True when the seed carries multipliers, i.e. the run steps seeded.
  bool seeds_multipliers() const { return !lambda.empty(); }
};

/// Out-of-band controls for a run — everything that is not part of the
/// deterministic problem statement. Default-constructed = the plain
/// fire-and-forget run every existing caller gets.
struct OgwsControl {
  /// Called once per completed iteration with that iteration's summary
  /// (dual, certificate gap, max violation, timing). Runs on the calling
  /// thread, inside the optimization loop — keep it cheap.
  std::function<void(const OgwsIterate&)> observer;
  /// Cooperative cancellation, polled once per iteration. On cancellation
  /// the run returns the best iterate found so far with `cancelled` set.
  std::stop_token stop;
  /// Warm-start snapshot (borrowed; must outlive the call). nullptr: cold.
  const OgwsWarmStart* warm_start = nullptr;
  /// Record OgwsResult::warm for re-seeding later runs. Off by default for
  /// raw run_ogws callers: the snapshot costs an O(edges) multiplier copy
  /// per dual-improving iteration. api::SizingSession enables it by default
  /// (its results are warm-start seeds by contract) and exposes
  /// set_capture_warm_start(false) for fire-and-forget harnesses — the
  /// paper-reproduction benches opt out in bench_common.hpp.
  bool capture_warm_start = false;
  /// Flow tracing (obs/trace.hpp): one span per OGWS iteration — with dual
  /// value, max KKT violation, nodes-moved and step (`rho`, `step_scale`)
  /// metadata — and per LRS pass, recorded into this session. nullptr (the
  /// default) disables tracing at the cost of one pointer test per
  /// iteration; the optimization trajectory is bit-identical either way
  /// (tracing only reads iterate state).
  obs::TraceSession* trace = nullptr;
};

struct OgwsResult {
  /// Best feasible iterate (least area; least-violating when nothing ever
  /// reached feasibility), indexed by NodeId.
  std::vector<double> sizes;
  bool converged = false;
  /// Cancellation observed via OgwsControl::stop; `sizes` and the metric
  /// fields still describe the best iterate seen before the interrupt.
  bool cancelled = false;
  /// The run stopped because the best dual exceeded Σ α_i U_i, the area
  /// with every component at its upper size bound. By weak duality no
  /// sizing in the box meets A0/P0/X0; `sizes` is the least-violating
  /// iterate and `converged` is false.
  bool proved_infeasible = false;
  int iterations = 0;
  double area = 0.0;     ///< area of the returned sizes
  double dual = 0.0;     ///< best dual lower bound seen
  double rel_gap = 0.0;  ///< (area − dual) / area at termination
  double max_violation = 0.0;  ///< violation of the returned sizes
  std::vector<OgwsIterate> history;
  /// pow() calls of the dual steps (dual_ascent_step's count, summed).
  long long pow_calls = 0;
  /// Multiplier, LRS and analysis working set: every per-node and per-edge
  /// vector the run keeps.
  std::size_t workspace_bytes = 0;
  /// Snapshot for re-seeding a later run: the multipliers that produced the
  /// best dual. Its `sizes` stay empty; a reseed takes them from `sizes`
  /// above (api::SizingSession::warm_start_from).
  OgwsWarmStart warm;
};

/// Run OGWS. The circuit's current sizes define the reference area used for
/// normalization; the returned sizes are written back into nothing — the
/// caller applies result.sizes if desired.
OgwsResult run_ogws(const netlist::Circuit& circuit,
                    const layout::CouplingSet& coupling, const Bounds& bounds,
                    const OgwsOptions& options = OgwsOptions{},
                    const OgwsControl& control = OgwsControl{});

}  // namespace lrsizer::core
