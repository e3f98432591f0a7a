#include "core/lrs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "layout/coloring.hpp"
#include "obs/trace.hpp"
#include "timing/upstream.hpp"
#include "util/assert.hpp"

namespace lrsizer::core {

namespace {

/// Fixed chunk size of the parallel colored sweep (Executor contract).
constexpr std::int32_t kGrain = 32;

/// Relative-change denominator floor: guards the S5 fixpoint metric against
/// x_i == 0 (a 0/0 or y/0 there turns max_rel_change into NaN and silently
/// disables the convergence test). Any positive x_i a caller can legally
/// pass is far above this, so the guard never changes a healthy value.
constexpr double kTinySize = std::numeric_limits<double>::min();

/// Worklist passes repair the analyses only after a sweep that moved at most
/// 1/kRepairDivisor of the components; past that, the repairs' flag scans
/// and closures cost more than full passes (measured on the Table-1
/// profiles, where a call's first sweep moves ~13% and later ones ~2–4%).
constexpr long long kRepairDivisor = 32;

/// The worklist drift test |a − b| / max(|b|, tiny) > eps, in multiply form
/// (the seeding scan runs it several times per component per pass, and a
/// divide there costs more than everything else in the scan).
bool drifted(double a, double b, double eps) {
  return std::abs(a - b) > eps * std::max(std::abs(b), kTinySize);
}

}  // namespace

const char* sweep_mode_name(SweepMode mode) {
  return mode == SweepMode::kWorklist ? "worklist" : "dense";
}

std::optional<SweepMode> sweep_mode_from_name(std::string_view name) {
  for (const SweepMode mode : {SweepMode::kDense, SweepMode::kWorklist}) {
    if (name == sweep_mode_name(mode)) return mode;
  }
  return std::nullopt;
}

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
                 const LrsRuntime& runtime) {
  LRSIZER_ASSERT(x.size() == static_cast<std::size_t>(circuit.num_nodes()));
  LRSIZER_ASSERT(mu.size() == x.size());

  const bool worklist = options.sweep == SweepMode::kWorklist;
  // Worklist dirtiness threshold: a node re-enters the frontier when a resize
  // input drifts more than this (relative) — small enough that skipped nodes
  // stay stationary within tol.
  const double wl_eps = options.tol / 8.0;
  // A worklist run resumes its own prior state: the persisted x, loads and
  // the snapshots describing when each node was last evaluated. Anything
  // else — first worklist call, circuit change, load-mode switch, or an
  // intervening dense run (which rewrites x without maintaining snapshots)
  // — starts cold.
  const bool wl_resume = worklist && workspace.worklist_valid &&
                         workspace.pending.size() == x.size() &&
                         workspace.exit_x.size() == x.size() &&
                         workspace.loads_mode == static_cast<int>(options.mode);
  workspace.worklist_valid = false;

  // S1: start from the lower bounds (or the caller's x when warm). The S5
  // relative-change test divides by the previous size, so the start point
  // must be positive — lower bounds are (asserted by Circuit::validate) and
  // warm starts are checked here. A resumed worklist run keeps its own x —
  // the convex subproblem has a unique optimum reachable from any positive
  // start, and re-solving from the previous solution is what makes the
  // frontier small.
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (!options.warm_start && !wl_resume) {
      LRSIZER_ASSERT_MSG(circuit.lower_bound(v) > 0.0,
                         "LRS needs positive lower bounds");
      x[i] = circuit.lower_bound(v);
    } else {
      LRSIZER_ASSERT_MSG(x[i] > 0.0, "LRS warm start needs positive sizes");
    }
  }
  if (worklist && !wl_resume) {
    workspace.pending.assign(x.size(), 1);
    workspace.snap_num.assign(x.size(), 0.0);
    workspace.snap_den.assign(x.size(), 0.0);
    workspace.snap_x = x;
    workspace.loads_dirty.assign(x.size(), 0);
    workspace.x_moved.assign(x.size(), 0);
    workspace.upstream_dirty.assign(x.size(), 0);
  }

  util::Executor* exec = util::serial(runtime.executor) ? nullptr : runtime.executor;

  // Color schedule for the parallel sweep: the caller's, or a local one.
  std::optional<netlist::LevelSchedule> local_colors;
  const netlist::LevelSchedule* colors = runtime.colors;
  if (exec != nullptr && colors == nullptr) {
    local_colors.emplace(layout::build_coupling_colors(circuit, coupling));
    colors = &*local_colors;
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

  // S4 per-component body: Theorem 5's closed-form resize (the hoisted twin
  // of optimal_resize — tests assert the fixpoint against the public
  // function). Neighbor sizes are read live (Gauss-Seidel, matching the
  // paper's sweep); under the colored schedule every smaller-id neighbor is
  // already updated and every larger-id neighbor is not yet — exactly the
  // index-order semantics.
  auto resize_node = [&](netlist::NodeId v, bool record_snapshots) -> double {
    const auto i = static_cast<std::size_t>(v);
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
    if (record_snapshots) {
      // Worklist bookkeeping: the coupling-free numerator term and the full
      // denominator at this evaluation — next pass's frontier seeding
      // re-enters the node when either drifts more than wl_eps.
      workspace.snap_num[i] = workspace.mu_res[i] * workspace.loads.cap_prime[i];
      workspace.snap_den[i] = denominator;
    }
    const double opt = std::sqrt(std::max(numerator, 0.0) / denominator);
    const double next =
        std::clamp(opt, circuit.lower_bound(v), circuit.upper_bound(v));
    const double rel_change = std::abs(next - x[i]) / std::max(x[i], kTinySize);
    x[i] = next;
    return rel_change;
  };

  auto sweep = [&]() -> double {
    double max_rel_change = 0.0;
    if (exec == nullptr) {
      for (netlist::NodeId v = circuit.first_component();
           v < circuit.end_component(); ++v) {
        max_rel_change = std::max(max_rel_change, resize_node(v, false));
      }
      return max_rel_change;
    }
    for (std::int32_t c = 0; c < colors->num_levels(); ++c) {
      const auto nodes = colors->level(c);
      const auto count = static_cast<std::int32_t>(nodes.size());
      // Fixed-shape max reduction: one partial per (count, kGrain) chunk,
      // combined in chunk order — and max is exact, so the combined value is
      // bit-identical to the sequential sweep's regardless of thread count.
      const std::int32_t chunks = util::num_chunks(count, kGrain);
      workspace.partials.assign(static_cast<std::size_t>(chunks), 0.0);
      exec->run_chunks(count, kGrain, [&](std::int32_t begin, std::int32_t end) {
        double local = 0.0;
        for (std::int32_t k = begin; k < end; ++k) {
          local = std::max(local,
                           resize_node(nodes[static_cast<std::size_t>(k)], false));
        }
        workspace.partials[static_cast<std::size_t>(begin / kGrain)] = local;
      });
      for (const double partial : workspace.partials) {
        max_rel_change = std::max(max_rel_change, partial);
      }
    }
    return max_rel_change;
  };

  // --- Worklist mode (SweepMode::kWorklist). ---------------------------------
  // Evaluate node v from the frontier: clear its flag, resize with snapshot
  // recording, and when the size has drifted more than wl_eps since it last
  // flagged its neighbors, mark every coupling neighbor dirty (their
  // Σ ĉ_ij x_j term moved). Under the order-preserving distance-2 coloring,
  // same-color nodes share no neighbor, so the flag writes are disjoint and
  // the parallel sweep is bit-identical to the serial ascending-index one: a
  // flagged neighbor with a larger index lands in a later color (picked up
  // this pass), a smaller index in an earlier color (picked up next pass) —
  // exactly the serial semantics.
  auto process_worklist_node = [&](netlist::NodeId v, long long& moved) -> double {
    const auto i = static_cast<std::size_t>(v);
    workspace.pending[i] = 0;
    const double x_before = x[i];
    const double rel_change = resize_node(v, true);
    if (!workspace.processed.empty()) workspace.processed[i] = 1;
    if (x[i] != x_before) {
      // Exact (bit-level) move: the incremental load pass must re-derive
      // this node and every coupling neighbor (their Σ ĉ_ij x_j term reads
      // x_i), and the upstream repair this node's fanouts. Writes stay
      // disjoint under the distance-2 coloring: peers of the same color
      // share no neighbor and never write each other's slot.
      ++moved;
      workspace.x_moved[i] = 1;
      workspace.loads_dirty[i] = 1;
      for (const auto& nb : coupling.neighbors(v)) {
        workspace.loads_dirty[static_cast<std::size_t>(nb.other)] = 1;
      }
    }
    if (drifted(x[i], workspace.snap_x[i], wl_eps)) {
      for (const auto& nb : coupling.neighbors(v)) {
        workspace.pending[static_cast<std::size_t>(nb.other)] = 1;
      }
      workspace.snap_x[i] = x[i];
    }
    return rel_change;
  };

  // Frontier seeding: re-enter any clean node whose recomputed resize inputs
  // (numerator term from the refreshed loads/μ, denominator from β, the
  // refreshed upstream resistance and γ) drifted more than wl_eps since its
  // last evaluation. Neighbor-size drift is handled by the flags above, so
  // these two O(1) checks cover every input of Theorem 5's formula.
  // Returns whether v is on the frontier after the check.
  auto seed_node = [&](netlist::NodeId v) -> bool {
    const auto i = static_cast<std::size_t>(v);
    if (workspace.pending[i] != 0) return true;
    const double num = workspace.mu_res[i] * workspace.loads.cap_prime[i];
    const double den = circuit.area_weight(v) +
                       (beta + workspace.r_up[i]) * circuit.unit_cap(v) +
                       workspace.gamma_coef[i];
    if (drifted(num, workspace.snap_num[i], wl_eps) ||
        drifted(den, workspace.snap_den[i], wl_eps)) {
      workspace.pending[i] = 1;
      return true;
    }
    return false;
  };

  // The seeding step; returns whether the frontier is non-empty. A full scan
  // checks every component. Within a call only cap_prime and r_up move, and
  // the repairs record every component whose value changed in `reseed`: any
  // other clean node has the exact inputs it had at its last check or
  // evaluation, so after a repaired pass re-checking just `reseed` yields the
  // full scan's frontier bit for bit.
  auto seed_frontier = [&](bool full_scan) -> bool {
    bool any = false;
    if (full_scan) {
      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
           ++v) {
        any |= seed_node(v);
      }
      workspace.reseed.clear();
      return any;
    }
    for (const netlist::NodeId v : workspace.reseed) any |= seed_node(v);
    workspace.reseed.clear();
    if (any) return true;
    // Nothing re-entered; the frontier may still hold nodes a larger-index
    // mover flagged after their turn in the last sweep.
    const auto begin = workspace.pending.begin() + circuit.first_component();
    const auto end = workspace.pending.begin() + circuit.end_component();
    return std::find(begin, end, 1) != end;
  };

  // One worklist pass: evaluate exactly the frontier; counts the evaluated
  // and the (bit-wise) moved components. Fixed-shape max / sum reductions as
  // in the dense sweep (sums of per-chunk counts are exact, so chunk order
  // cannot change them).
  auto worklist_sweep = [&](long long& processed_count, long long& moved_count) -> double {
    double max_rel_change = 0.0;
    processed_count = 0;
    moved_count = 0;
    if (exec == nullptr) {
      for (netlist::NodeId v = circuit.first_component();
           v < circuit.end_component(); ++v) {
        if (workspace.pending[static_cast<std::size_t>(v)] == 0) continue;
        max_rel_change = std::max(max_rel_change, process_worklist_node(v, moved_count));
        ++processed_count;
      }
      return max_rel_change;
    }
    for (std::int32_t c = 0; c < colors->num_levels(); ++c) {
      const auto nodes = colors->level(c);
      const auto count = static_cast<std::int32_t>(nodes.size());
      const std::int32_t chunks = util::num_chunks(count, kGrain);
      workspace.partials.assign(static_cast<std::size_t>(chunks), 0.0);
      workspace.count_partials.assign(static_cast<std::size_t>(chunks), {0, 0});
      exec->run_chunks(count, kGrain, [&](std::int32_t begin, std::int32_t end) {
        double local = 0.0;
        long long local_count = 0, local_moved = 0;
        for (std::int32_t k = begin; k < end; ++k) {
          const netlist::NodeId v = nodes[static_cast<std::size_t>(k)];
          if (workspace.pending[static_cast<std::size_t>(v)] == 0) continue;
          local = std::max(local, process_worklist_node(v, local_moved));
          ++local_count;
        }
        workspace.partials[static_cast<std::size_t>(begin / kGrain)] = local;
        workspace.count_partials[static_cast<std::size_t>(begin / kGrain)] = {
            local_count, local_moved};
      });
      for (const double partial : workspace.partials) {
        max_rel_change = std::max(max_rel_change, partial);
      }
      for (const auto& [processed, moved] : workspace.count_partials) {
        processed_count += processed;
        moved_count += moved;
      }
    }
    return max_rel_change;
  };

  // Incremental load maintenance (worklist mode): re-derive exactly the
  // dirty nodes in the same descending order the dense pass uses. A node's
  // loads are a pure function of its own/neighbor sizes and its children's
  // load_in (timing::compute_node_loads — the dense pass's own body), so
  // recomputing a superset of the nodes whose inputs changed yields loads
  // bit-identical to a full pass; a changed load_in propagates to the fanins
  // (smaller indices — visited later in this order). load_in is the input
  // capacitance for gates, so the propagation dies at stage boundaries and
  // the closure stays near the movers. A component whose cap_prime changed
  // goes on `reseed`.
  auto incremental_loads = [&]() {
    for (netlist::NodeId v = circuit.sink() - 1; v >= 1; --v) {
      const auto i = static_cast<std::size_t>(v);
      if (workspace.loads_dirty[i] == 0) continue;
      workspace.loads_dirty[i] = 0;
      const double load_in_before = workspace.loads.load_in[i];
      const double cap_prime_before = workspace.loads.cap_prime[i];
      timing::compute_node_loads(circuit, coupling, x, options.mode,
                                 workspace.loads, v);
      if (workspace.loads.load_in[i] != load_in_before) {
        for (const netlist::NodeId u : circuit.inputs(v)) {
          workspace.loads_dirty[static_cast<std::size_t>(u)] = 1;
        }
      }
      if (workspace.loads.cap_prime[i] != cap_prime_before &&
          v >= circuit.first_component()) {
        workspace.reseed.push_back(v);
      }
    }
  };

  // Incremental upstream maintenance (repaired worklist passes): μ is fixed
  // within a call, so r_up moves only below a fanin whose size
  // moved. A node whose x changed bit-wise in the last sweep dirties its
  // fanouts; a dirty wire whose recomputed r_up changed dirties its own
  // fanouts, while gates end the recursion, so the closure stays inside the
  // movers' stages. Ascending order visits every fanin first, so this is
  // bit-identical to a full compute_weighted_upstream (see
  // timing::compute_node_upstream). Serial, like incremental_loads, so the
  // result is the same at any thread count. A component whose r_up changed
  // goes on `reseed`.
  auto incremental_upstream = [&]() {
    const netlist::NodeId sink = circuit.sink();
    auto dirty_fanouts = [&](netlist::NodeId v) {
      for (const netlist::NodeId c : circuit.outputs(v)) {
        if (c != sink) workspace.upstream_dirty[static_cast<std::size_t>(c)] = 1;
      }
    };
    for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
         ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (workspace.x_moved[i] != 0) {
        workspace.x_moved[i] = 0;
        dirty_fanouts(v);
      }
      if (workspace.upstream_dirty[i] == 0) continue;
      workspace.upstream_dirty[i] = 0;
      const double r_up_before = workspace.r_up[i];
      timing::compute_node_upstream(circuit, x, mu, workspace.r_up, v);
      if (workspace.r_up[i] != r_up_before) {
        workspace.reseed.push_back(v);
        if (circuit.is_wire(v)) dirty_fanouts(v);
      }
    }
  };

  // S2 at the start point; subsequent passes refresh the loads *after* the
  // sweep (see the hand-back contract in lrs.hpp), which serves as the next
  // pass's S2 and, on exit, as the caller's final-x analysis. A resumed
  // worklist run already holds the loads of its exit x, so instead of a full
  // pass it diffs the incoming x against that exit x — callers may legally
  // hand back a modified x — and repairs incrementally.
  if (wl_resume) {
    for (netlist::NodeId v = circuit.first_component();
         v < circuit.end_component(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (x[i] == workspace.exit_x[i]) continue;
      workspace.pending[i] = 1;
      workspace.loads_dirty[i] = 1;
      for (const auto& nb : coupling.neighbors(v)) {
        workspace.loads_dirty[static_cast<std::size_t>(nb.other)] = 1;
      }
      if (drifted(x[i], workspace.snap_x[i], wl_eps)) {
        for (const auto& nb : coupling.neighbors(v)) {
          workspace.pending[static_cast<std::size_t>(nb.other)] = 1;
        }
        workspace.snap_x[i] = x[i];
      }
    }
    incremental_loads();
  } else {
    timing::compute_loads(circuit, coupling, x, options.mode, workspace.loads, exec);
  }

  LrsStats stats;
  const long long num_components =
      static_cast<long long>(circuit.end_component() - circuit.first_component());
  // Worklist stop protocol: each pass begins with a seeding step that
  // re-checks every component whose resize inputs moved against its
  // last-evaluated snapshot, so an *empty* frontier certifies that every
  // component is ε-stationary (wl_eps < tol) — that step IS the convergence
  // proof, and no dense verification pass is needed. The dense tol test is
  // not consulted: a mover above wl_eps always flags its coupling neighbors,
  // so the loop cannot stop while any node still has a stale input.
  //
  // Repair or recompute: a worklist pass after a sweep that moved at most
  // 1/kRepairDivisor of the components repairs the loads and r_up below the
  // movers and seeds from `reseed`; after a bigger sweep, and on a call's
  // first pass (μ moved everywhere), full passes and a full seeding scan are
  // cheaper. Both routes give bit-identical analyses and frontiers, so the
  // choice only moves cost.
  bool repair = false;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    obs::ScopedSpan span(runtime.trace, "lrs_pass", "lrs");

    // S3: μ-weighted upstream resistances at the current sizes.
    if (repair) {
      incremental_upstream();
    } else {
      timing::compute_weighted_upstream(circuit, x, mu, workspace.r_up, exec);
      if (worklist) std::fill(workspace.x_moved.begin(), workspace.x_moved.end(), 0);
    }

    // S4: greedy closed-form resize, components in color order (= index
    // order semantics, see above).
    double max_rel_change = 0.0;
    long long processed_count = 0;
    long long moved_count = 0;
    if (!worklist) {
      max_rel_change = sweep();
      processed_count = num_components;
    } else {
      if (!seed_frontier(!repair)) {
        span.arg("pass", pass + 1);
        span.arg("nodes_processed", 0.0);
        break;  // frontier empty: every component ε-stationary — converged
      }
      if (runtime.probe != nullptr) {
        workspace.processed.assign(x.size(), 0);
        if (runtime.probe->on_pass_begin) {
          runtime.probe->on_pass_begin(pass, x, workspace.loads, workspace.r_up,
                                       workspace.pending);
        }
      } else {
        workspace.processed.clear();
      }
      max_rel_change = worklist_sweep(processed_count, moved_count);
      if (runtime.probe != nullptr && runtime.probe->on_pass_end) {
        runtime.probe->on_pass_end(pass, workspace.processed);
      }
    }

    // Refresh the loads at the post-sweep x.
    repair = worklist && moved_count * kRepairDivisor <= num_components;
    if (repair) {
      incremental_loads();
    } else {
      timing::compute_loads(circuit, coupling, x, options.mode, workspace.loads,
                            exec);
      if (worklist) {
        std::fill(workspace.loads_dirty.begin(), workspace.loads_dirty.end(), 0);
      }
    }

    stats.passes = pass + 1;
    stats.max_rel_change = max_rel_change;
    stats.nodes_processed += processed_count;
    span.arg("pass", pass + 1);
    span.arg("max_rel_change", max_rel_change);
    span.arg("nodes_processed", static_cast<double>(processed_count));
    // S5: "repeat until no improvement" — dense stops at tol; worklist stops
    // above, when the frontier drains.
    if (!worklist && max_rel_change < options.tol) break;
  }
  if (worklist) {
    workspace.exit_x = x;
    workspace.loads_mode = static_cast<int>(options.mode);
  }
  workspace.worklist_valid = worklist;
  return stats;
}

}  // namespace lrsizer::core
