#include "core/lrs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"
#include "timing/upstream.hpp"
#include "util/assert.hpp"

namespace lrsizer::core {

namespace {

/// Relative-change denominator floor: guards the S5 fixpoint metric against
/// x_i == 0 (a 0/0 or y/0 there turns max_rel_change into NaN and silently
/// disables the convergence test). Any positive x_i a caller can legally
/// pass is far above this, so the guard never changes a healthy value.
constexpr double kTinySize = std::numeric_limits<double>::min();

}  // namespace

double optimal_resize(const netlist::Circuit& circuit,
                      const layout::CouplingSet& coupling,
                      const std::vector<double>& mu, double beta,
                      const NoiseMultipliers& gamma, const std::vector<double>& x,
                      const timing::LoadAnalysis& loads,
                      const std::vector<double>& r_up, netlist::NodeId v) {
  const auto i = static_cast<std::size_t>(v);

  double couple_nbr = 0.0;         // Σ ĉ_ij x_j
  double couple_gamma_coef = 0.0;  // Σ γ_ij ĉ_ij (γ_ij per the pair's owner)
  for (const auto& nb : coupling.neighbors(v)) {
    couple_nbr += nb.c_hat * x[static_cast<std::size_t>(nb.other)];
    const netlist::NodeId owner = coupling.pairs()[static_cast<std::size_t>(nb.pair)].a;
    couple_gamma_coef += gamma.for_owner(owner) * nb.c_hat;
  }

  const double numerator =
      mu[i] * circuit.unit_res(v) * (loads.cap_prime[i] + couple_nbr);
  const double denominator = circuit.area_weight(v) +
                             (beta + r_up[i]) * circuit.unit_cap(v) +
                             couple_gamma_coef;
  LRSIZER_ASSERT_MSG(denominator > 0.0, "area weights must be positive");
  return std::sqrt(std::max(numerator, 0.0) / denominator);
}

LrsStats run_lrs(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                 const std::vector<double>& mu, double beta,
                 const NoiseMultipliers& gamma, const LrsOptions& options,
                 std::vector<double>& x, LrsWorkspace& workspace,
                 obs::TraceSession* trace) {
  LRSIZER_ASSERT(x.size() == static_cast<std::size_t>(circuit.num_nodes()));
  LRSIZER_ASSERT(mu.size() == x.size());

  // S1: a fresh workspace's first call starts from the lower bounds (or the
  // caller's x when warm); a later call resumes from the incoming x — the
  // convex subproblem has a unique optimum reachable from any positive
  // start, and re-solving from the previous solution is what keeps an OGWS
  // iteration's solve short. The S5 relative-change test divides by the
  // previous size, so the start point must be positive — lower bounds are
  // (asserted by Circuit::validate) and kept sizes are checked here.
  const bool fresh = workspace.exit_x.size() != x.size();
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (fresh && !options.warm_start) {
      LRSIZER_ASSERT_MSG(circuit.lower_bound(v) > 0.0,
                         "LRS needs positive lower bounds");
      x[i] = circuit.lower_bound(v);
    } else {
      LRSIZER_ASSERT_MSG(x[i] > 0.0, "LRS warm start needs positive sizes");
    }
  }

  // Pass-invariant terms of opt_i, derived once instead of per pass per
  // node (μ, γ and the coupling coefficients are all fixed for this call).
  workspace.mu_res.assign(x.size(), 0.0);
  workspace.gamma_coef.assign(x.size(), 0.0);
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    const auto i = static_cast<std::size_t>(v);
    workspace.mu_res[i] = mu[i] * circuit.unit_res(v);
    double coef = 0.0;
    for (const auto& nb : coupling.neighbors(v)) {
      const netlist::NodeId owner =
          coupling.pairs()[static_cast<std::size_t>(nb.pair)].a;
      coef += gamma.for_owner(owner) * nb.c_hat;
    }
    workspace.gamma_coef[i] = coef;
  }

  // S2 at the start point, unless the workspace's loads already describe it:
  // they are the loads of the x the last call returned (see exit_x).
  if (fresh || workspace.exit_mode != options.mode || x != workspace.exit_x) {
    timing::compute_loads(circuit, coupling, x, options.mode, workspace.loads);
  }
  // Drivers' entries stay 0: nothing is upstream of an input driver.
  if (workspace.r_up.size() != x.size()) workspace.r_up.assign(x.size(), 0.0);

  LrsStats stats;
  const long long num_components =
      static_cast<long long>(circuit.end_component() - circuit.first_component());
  for (int pass = 0; pass < options.max_passes; ++pass) {
    obs::ScopedSpan span(trace, "lrs_pass", "lrs");

    // S3 + S4 in one forward walk, components in index order. R_i reads the
    // fanins (lower indices), already resized this pass; C'_i in the loads
    // reads only higher indices under kLocalOnly, not yet resized, so it is
    // still exact; the coupling term reads the neighbors' current sizes.
    // Each resize is Theorem 5's closed form (the hoisted twin of
    // optimal_resize — tests assert the fixpoint against the public function).
    double max_rel_change = 0.0;
    for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
         ++v) {
      const auto i = static_cast<std::size_t>(v);
      timing::compute_node_upstream(circuit, x, mu, workspace.r_up, v);
      double couple_nbr = 0.0;  // Σ ĉ_ij x_j
      for (const auto& nb : coupling.neighbors(v)) {
        couple_nbr += nb.c_hat * x[static_cast<std::size_t>(nb.other)];
      }
      const double numerator =
          workspace.mu_res[i] * (workspace.loads.cap_prime[i] + couple_nbr);
      const double denominator = circuit.area_weight(v) +
                                 (beta + workspace.r_up[i]) * circuit.unit_cap(v) +
                                 workspace.gamma_coef[i];
      LRSIZER_ASSERT_MSG(denominator > 0.0, "area weights must be positive");
      const double next = clamped_resize(numerator, denominator, circuit.lower_bound(v),
                                         circuit.upper_bound(v));
      max_rel_change =
          std::max(max_rel_change, std::abs(next - x[i]) / std::max(x[i], kTinySize));
      x[i] = next;
    }

    // S2 at the post-sweep x. The walk has already decided S5, so a pass
    // that closes the call writes all three load fields (the hand-back
    // contract in lrs.hpp) and any other writes what the next walk reads:
    // C'_i and the load_in it sums. kPropagateUpstream's load_in carries the
    // coupling terms, so it always takes the full pass.
    const bool closing = max_rel_change < options.tol || pass + 1 == options.max_passes;
    if (closing || options.mode != timing::CouplingLoadMode::kLocalOnly) {
      timing::compute_loads(circuit, coupling, x, options.mode, workspace.loads);
    } else {
      timing::compute_prime_loads(circuit, coupling, x, workspace.loads);
    }

    stats.passes = pass + 1;
    stats.max_rel_change = max_rel_change;
    stats.nodes_processed += num_components;
    span.arg("pass", pass + 1);
    span.arg("max_rel_change", max_rel_change);
    span.arg("nodes_processed", static_cast<double>(num_components));
    // S5: "repeat until no improvement".
    if (closing) break;
  }
  workspace.exit_x = x;
  workspace.exit_mode = options.mode;
  return stats;
}

}  // namespace lrsizer::core
