// LRS — the greedy, optimal solver for the Lagrangian relaxation
// subproblem LRS₂ (paper Figure 8 + Theorem 5).
//
//   S1. x_i ← L_i
//   S2. compute C'_i         (reverse topological pass)
//   S3. compute R_i          (topological pass, μ-weighted)
//   S4. x_i ← min(U_i, max(L_i, opt_i)) for every component, where
//
//               ┌ μ_i r̂_i (C'_i + Σ_{j∈N(i)} ĉ_ij x_j)          ┐ ½
//       opt_i = │ ─────────────────────────────────────────────  │
//               └ α_i + (β + R_i) ĉ_i + γ Σ_{j∈N(i)} ĉ_ij        ┘
//
//   S5. repeat S2–S4 until no improvement.
//
// One pass fuses S3 and S4 into a forward walk: R_i depends only on the
// fanins (lower indices), so the walk computes it from the sizes this pass
// already set and resizes component i at once; a reverse load pass (S2)
// closes the pass, writing only C'_i and load_in unless the pass closes the
// call. C'_i reads only higher-index sizes (coupling loads only its victim,
// decision D4), which the walk has not reached, so every resize is the exact
// minimizer of L over x_i with every other size fixed (docs/ARCHITECTURE.md
// §One-sweep LRS). Because the transformed problem is convex with a unique
// optimum, this coordinate-greedy scheme converges to the subproblem's global
// minimum (Theorem on page 4); tests verify stationarity against numeric
// gradients.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/multipliers.hpp"
#include "core/problem.hpp"
#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"
#include "timing/loads.hpp"

namespace lrsizer::obs {
class TraceSession;
}

namespace lrsizer::core {

/// Crosstalk-constraint multipliers. The paper's base formulation uses one
/// γ for the total-noise bound; its §4.1 note ("the crosstalk constraint
/// can easily be extended to the case with a distributed crosstalk bound on
/// each net") adds one multiplier per owning wire — pair (i,j), j ∈ I(i),
/// then carries weight total + per_net[i]. Implicitly constructible from a
/// plain double so total-bound call sites read naturally.
struct NoiseMultipliers {
  NoiseMultipliers(double total_gamma = 0.0) : total(total_gamma) {}  // NOLINT
  NoiseMultipliers(double total_gamma, const std::vector<double>* per_net_gamma)
      : total(total_gamma), per_net(per_net_gamma) {}

  double total = 0.0;
  /// Indexed by owner NodeId; nullptr when the distributed bound is off.
  const std::vector<double>* per_net = nullptr;

  /// Effective multiplier for a pair owned by `owner`.
  double for_owner(netlist::NodeId owner) const {
    return total +
           (per_net != nullptr ? (*per_net)[static_cast<std::size_t>(owner)] : 0.0);
  }
};

struct LrsOptions {
  int max_passes = 100;
  /// S5's fixpoint tolerance: stop when max_i |Δx_i|/x_i falls below this.
  /// 1e-2, the default OgwsOptions::gap_tol: OGWS certifies to 1%, and a
  /// finer inner solve buys it nothing measurable. Over 120 jobs (the ten
  /// Table-1 profiles at generator seeds 1-5, plus noise 0.12 and 0.2, delay
  /// 0.95 and 1.1, power 0.3, 200 vectors and no WOSS at seed 1), 1e-2
  /// against 1e-4 kept every verdict and all but one iteration count (2796
  /// → 2795), cut LRS passes 10,539 → 6,881 and moved no area more than
  /// 3.7e-4 relative; the best dual stays within 5.1e-8 relative of the exact
  /// dual at its multipliers. 3e-3 saved only 25% of the passes; 3e-2 and
  /// 0.1 changed 3 and 7 iteration counts and moved areas by up to 1.3e-3
  /// and 7.2e-3.
  double tol = 1e-2;
  /// Holds only kLocalOnly and is read by nothing in the solver; kept only
  /// for perfbench/driver.cpp (see timing::CouplingLoadMode).
  timing::CouplingLoadMode mode = timing::CouplingLoadMode::kLocalOnly;
};

struct LrsStats {
  int passes = 0;
  double max_rel_change = 0.0;  ///< at the last pass
  /// Component evaluations summed over the passes: every pass resizes every
  /// component, so this is passes × components.
  long long nodes_processed = 0;
};

/// State reused across calls (the OGWS loop calls LRS every iteration;
/// reusing keeps allocation and a load pass out of the per-iteration cost).
struct LrsWorkspace {
  /// Loads at the x the last call returned (the hand-back contract below).
  timing::LoadAnalysis loads;
  std::vector<double> r_up;
  /// Pass-invariant per-node terms of Theorem 5's opt_i, hoisted out of the
  /// sweep at the start of every run_lrs call (they depend only on μ, γ and
  /// the coupling constants, never on x): numerator coefficient μ_i·r̂_i and
  /// denominator coupling term Σ_{j∈N(i)} γ_ij·ĉ_ij. Accumulated in the
  /// exact order optimal_resize uses, so the hoist is bit-neutral.
  std::vector<double> mu_res;
  std::vector<double> gamma_coef;
  /// The x the last call returned, empty on a fresh workspace. A call whose
  /// incoming x equals it bit for bit reuses `loads` instead of starting
  /// with a load pass; any other x — a caller may hand back an edited one —
  /// gets a fresh pass.
  std::vector<double> exit_x;
};

/// Theorem 5's resize with its box clamp: min(U, max(L, √(max(num, 0)/den))).
/// A numerator at or below L²·den·(1 − 1e-12) gives L without the sqrt and
/// the divide. The rounding of those products and of the sqrt path adds up
/// to a few ulp, far inside the 1e-12 margin, so the shortcut returns L only
/// where √(num/den) < L: the result is bit-identical to the sqrt path. The
/// margin argument needs L² and the product in the normal range, which the
/// two isnormal tests keep true. Most evaluations in a solve end pinned at
/// L, which is what makes the shortcut pay. `denominator` must be positive.
inline double clamped_resize(double numerator, double denominator, double lower,
                             double upper) {
  const double lower_sq = lower * lower;
  const double floor = lower_sq * denominator * (1.0 - 1e-12);
  if (numerator <= floor && std::isnormal(lower_sq) && std::isnormal(floor)) return lower;
  return std::clamp(std::sqrt(std::max(numerator, 0.0) / denominator), lower, upper);
}

/// Minimize L_{λ,β,γ}(x) over the size box; x is in/out (indexed by NodeId).
/// S1: a fresh workspace's first call starts at the lower bounds; every
/// later call on the same workspace resumes from the incoming x.
///
/// Hand-back contract: on return, `workspace.loads` holds the load analysis
/// at the returned x (the call's last pass, S5 met or max_passes reached,
/// ends with the full load pass; earlier passes refresh only what the next
/// walk reads, C'_i and load_in), so the caller's post-LRS timing (OGWS
/// step A3's arrival pass) reuses it instead of
/// recomputing, and a next call handed that x back unchanged starts without
/// one. Callers read `workspace.loads` and never write it. `trace` records
/// one "lrs_pass" span per pass when set; it never changes the result.
LrsStats run_lrs(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                 const std::vector<double>& mu, double beta, const NoiseMultipliers& gamma,
                 const LrsOptions& options, std::vector<double>& x,
                 LrsWorkspace& workspace, obs::TraceSession* trace = nullptr);

/// Theorem 5's opt_i for one component given current analyses; exposed for
/// tests (stationarity checks) and diagnostics.
double optimal_resize(const netlist::Circuit& circuit,
                      const layout::CouplingSet& coupling,
                      const std::vector<double>& mu, double beta, const NoiseMultipliers& gamma,
                      const std::vector<double>& x,
                      const timing::LoadAnalysis& loads,
                      const std::vector<double>& r_up, netlist::NodeId v);

}  // namespace lrsizer::core
