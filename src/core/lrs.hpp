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
// Because the transformed problem is convex with a unique optimum, this
// coordinate-greedy scheme converges to the subproblem's global minimum
// (Theorem on page 4); tests verify stationarity against numeric gradients.
#pragma once

#include <functional>
#include <optional>
#include <string_view>
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

/// Sweep strategy for S4 (docs/ARCHITECTURE.md §Worklist LRS).
enum class SweepMode {
  /// Paper Figure 8: every pass re-evaluates every component. The bit-exact
  /// reference and the oracle of the worklist's differential tests; select
  /// it explicitly (`--sweep dense`, serve "sweep":"dense").
  kDense,
  /// Worklist (Galois-style) mode, the default: each pass evaluates only
  /// components whose resize inputs — numerator term μ_i·r̂_i·C'_i,
  /// denominator (β + R_i) terms, or a coupling neighbor's size — drifted
  /// more than tol/8 since the node was last evaluated; dirtiness propagates
  /// to coupling neighbors. Converges to the same fixpoint within tolerance
  /// (the seeding step re-checks every component whose inputs moved, so an
  /// empty frontier certifies ε-stationarity and stops the sweep) but skips
  /// clean nodes, so iterates are NOT bit-identical to kDense. Worklist runs persist x and the
  /// snapshot state across calls via LrsWorkspace, so successive OGWS
  /// iterations re-process only what the multiplier step perturbed, and a
  /// pass after a small sweep repairs the loads and upstream resistances
  /// instead of recomputing them.
  kWorklist,
};

/// Canonical lowercase name ("dense" / "worklist") — cache canon, CLI, serve.
const char* sweep_mode_name(SweepMode mode);
/// Inverse of sweep_mode_name; nullopt for any other string.
std::optional<SweepMode> sweep_mode_from_name(std::string_view name);

struct LrsOptions {
  int max_passes = 100;
  /// Fixpoint tolerance: stop when max_i |Δx_i|/x_i falls below this.
  double tol = 1e-4;
  /// Paper S1 resets x to the lower bounds every call; warm start reuses
  /// the incoming x (ablation A1 measures the difference).
  bool warm_start = false;
  timing::CouplingLoadMode mode = timing::CouplingLoadMode::kLocalOnly;
  SweepMode sweep = SweepMode::kWorklist;
};

struct LrsStats {
  int passes = 0;
  double max_rel_change = 0.0;  ///< at the last pass
  /// Component evaluations summed over the passes (dense: components ×
  /// passes; worklist: only frontier nodes). The <25%-reprocessed
  /// acceptance metric divides this by passes × components.
  long long nodes_processed = 0;
};

/// Scratch buffers reused across calls (the OGWS loop calls LRS every
/// iteration; reusing keeps allocation out of the per-iteration cost).
struct LrsWorkspace {
  timing::LoadAnalysis loads;
  std::vector<double> r_up;
  /// Pass-invariant per-node terms of Theorem 5's opt_i, hoisted out of the
  /// sweep at the start of every run_lrs call (they depend only on μ, γ and
  /// the coupling constants, never on x): numerator coefficient μ_i·r̂_i and
  /// denominator coupling term Σ_{j∈N(i)} γ_ij·ĉ_ij. Accumulated in the
  /// exact order optimal_resize uses, so the hoist is bit-neutral.
  std::vector<double> mu_res;
  std::vector<double> gamma_coef;

  // --- Worklist-mode state (SweepMode::kWorklist). Persists across run_lrs
  // calls on the same circuit so successive OGWS iterations seed their
  // frontier from what actually changed; run_lrs (re)initializes it whenever
  // `worklist_valid` is false or the circuit size changed, and any dense run
  // invalidates it (a dense sweep rewrites x without maintaining snapshots).
  /// Frontier flag per NodeId: 1 = evaluate on the next pass.
  std::vector<unsigned char> pending;
  /// μ_i·r̂_i·C'_i at the node's last evaluation (numerator drift check).
  std::vector<double> snap_num;
  /// Full Theorem-5 denominator at the node's last evaluation.
  std::vector<double> snap_den;
  /// x_i when the node last flagged its coupling neighbors; comparing
  /// against the *flag-time* size (not last pass's) makes the neighbor
  /// dirtiness test cumulative, so slow sub-eps drift cannot accumulate
  /// unnoticed.
  std::vector<double> snap_x;
  /// Per-pass scratch: which components the sweep evaluated (only
  /// maintained when LrsRuntime::probe is set).
  std::vector<unsigned char> processed;
  /// Nodes whose load entries must be recomputed (exact, bit-driven — not
  /// the eps-thresholded `pending`): a resize that changed x_i bit-wise
  /// marks i and its coupling neighbors; the incremental load pass then
  /// propagates along changed load_in values to fanins. Keeping `loads`
  /// maintained this way is bit-identical to a full compute_loads pass (see
  /// timing::compute_node_loads) at a fraction of the per-pass cost.
  std::vector<unsigned char> loads_dirty;
  /// Components whose x changed bit-wise in a sweep since the last upstream
  /// pass; the upstream repair turns each into its fanouts'
  /// `upstream_dirty` flags.
  std::vector<unsigned char> x_moved;
  /// Nodes whose r_up the upstream repair must recompute (exact,
  /// bit-driven): a moved fanin, or a wire fanin whose r_up changed. The
  /// repair keeps r_up bit-identical to a full compute_weighted_upstream
  /// (see timing::compute_node_upstream).
  std::vector<unsigned char> upstream_dirty;
  /// Components whose cap_prime or r_up a repair changed since the last
  /// seeding step — the only resize inputs that move within a call, so a
  /// repaired pass re-checks just these.
  std::vector<netlist::NodeId> reseed;
  /// x as this workspace's last worklist run left it. A resumed run diffs
  /// the incoming x against it (callers may legally hand back a modified x)
  /// and marks any externally changed node dirty + pending instead of
  /// recomputing the loads from scratch.
  std::vector<double> exit_x;
  /// CouplingLoadMode (as int) the persisted loads were computed under; a
  /// mode switch forces a cold start.
  int loads_mode = -1;
  bool worklist_valid = false;
};

/// Test-only observation hooks for the worklist sweep; the dirty-set
/// property tests replay skipped nodes against the frozen pass-start state
/// and check the repaired analyses and frontier against full recomputation.
/// Both fire in worklist mode only.
struct LrsProbe {
  /// After frontier seeding, before the sweep of (0-based) `pass`: the state
  /// the sweep will read and the frontier it will honor.
  std::function<void(int pass, const std::vector<double>& x,
                     const timing::LoadAnalysis& loads,
                     const std::vector<double>& r_up,
                     const std::vector<unsigned char>& pending)>
      on_pass_begin;
  /// After the sweep: which components it actually evaluated.
  std::function<void(int pass, const std::vector<unsigned char>& processed)>
      on_pass_end;
};

/// Out-of-band observation hooks for run_lrs — nothing in here changes the
/// result.
struct LrsRuntime {
  /// Flow tracing: one span per LRS pass (sweep) when set. nullptr (the
  /// default) costs a single pointer test per pass — see obs/trace.hpp.
  obs::TraceSession* trace = nullptr;
  /// Worklist observation hooks (tests only); nullptr disables.
  const LrsProbe* probe = nullptr;
};

/// Minimize L_{λ,β,γ}(x) over the size box; x is in/out (indexed by NodeId).
///
/// Hand-back contract: on return, `workspace.loads` holds the load analysis
/// at the returned x (each pass refreshes it *after* the resize sweep), so
/// the caller's post-LRS timing (OGWS step A3's arrival pass) reuses it
/// instead of recomputing — one full load pass saved per OGWS iteration.
LrsStats run_lrs(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                 const std::vector<double>& mu, double beta, const NoiseMultipliers& gamma,
                 const LrsOptions& options, std::vector<double>& x,
                 LrsWorkspace& workspace, const LrsRuntime& runtime = LrsRuntime{});

/// Theorem 5's opt_i for one component given current analyses; exposed for
/// tests (stationarity checks) and diagnostics.
double optimal_resize(const netlist::Circuit& circuit,
                      const layout::CouplingSet& coupling,
                      const std::vector<double>& mu, double beta, const NoiseMultipliers& gamma,
                      const std::vector<double>& x,
                      const timing::LoadAnalysis& loads,
                      const std::vector<double>& r_up, netlist::NodeId v);

}  // namespace lrsizer::core
