// Downstream capacitance passes (paper §2.1 circuit model + §4 coupling).
//
// Stage-local Elmore load model: a gate's input capacitance terminates its
// fanin stage; a wire's π-model puts (ĉx+f)/2 at each end. For every node i
// we compute, in one reverse-topological sweep:
//
//   cap_delay[i]  = C_i   — everything downstream of r_i, including the
//                           wire's own output half ("self-loading") and the
//                           wire's coupling capacitance; drives D_i = r_i·C_i.
//   cap_prime[i]  = C'_i  — C_i with all x_i-proportional terms removed and
//                           the neighbor-size coupling Σ ĉ_ij·x_j removed
//                           (Theorem 5 adds that term explicitly).
//   load_in[i]    = the capacitance component i presents to its parent.
//
// CouplingLoadMode selects whether a wire's coupling capacitance is charged
// only to the victim wire's own delay (kLocalOnly — matches Theorem 5's
// resize rule exactly) or also propagates into upstream loads
// (kPropagateUpstream — physical ground-cap approximation; compared in
// bench_ablation). See docs/ARCHITECTURE.md, decision D4.
#pragma once

#include <vector>

#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"

namespace lrsizer::timing {

enum class CouplingLoadMode {
  kLocalOnly,
  kPropagateUpstream,
};

struct LoadAnalysis {
  std::vector<double> cap_delay;
  std::vector<double> cap_prime;
  std::vector<double> load_in;

  void resize(std::size_t n) {
    // Re-zeroing is skipped when the shape is unchanged: compute_loads
    // overwrites every entry for nodes 1..sink-1 unconditionally, and the
    // source/sink entries stay at the 0 this first-time fill wrote. Dropping
    // the three O(n) refills matters — the OGWS hot loop runs this pass
    // several times per iteration.
    if (cap_delay.size() == n) return;
    cap_delay.assign(n, 0.0);
    cap_prime.assign(n, 0.0);
    load_in.assign(n, 0.0);
  }
};

/// One reverse-topological sweep; O(|V| + |E| + |pairs|).
void compute_loads(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                   const std::vector<double>& x, CouplingLoadMode mode,
                   LoadAnalysis& out);

/// Recompute node v's three load entries in place: the per-node body of
/// compute_loads, which runs it once per node in descending order. `out`
/// must be sized and v's children's load_in entries must be final. Writes
/// only node v's slots. Inline so the sweep makes no call per node.
inline void compute_node_loads(const netlist::Circuit& circuit,
                               const layout::CouplingSet& coupling,
                               const std::vector<double>& x, CouplingLoadMode mode,
                               LoadAnalysis& out, netlist::NodeId v) {
  using netlist::NodeId;
  using netlist::NodeKind;
  const NodeId sink = circuit.sink();
  const auto i = static_cast<std::size_t>(v);

  double child_sum = circuit.pin_load(v);  // C_L attached at this output
  for (NodeId child : circuit.outputs(v)) {
    if (child == sink) continue;  // the sink edge itself carries no cap
    child_sum += out.load_in[static_cast<std::size_t>(child)];
  }

  switch (circuit.kind(v)) {
    case NodeKind::kGate: {
      // A gate drives its fanout stage; its own input cap faces upstream.
      out.cap_delay[i] = child_sum;
      out.cap_prime[i] = child_sum;
      out.load_in[i] = circuit.unit_cap(v) * x[i];
      break;
    }
    case NodeKind::kWire: {
      const double half = 0.5 * (circuit.unit_cap(v) * x[i] + circuit.fringe_cap(v));
      double couple_const = 0.0;  // Σ c̃_ij (effective)
      double couple_own = 0.0;    // Σ ĉ_ij x_i
      double couple_nbr = 0.0;    // Σ ĉ_ij x_j
      for (const auto& nb : coupling.neighbors(v)) {
        couple_const += nb.c_tilde;
        couple_own += nb.c_hat * x[i];
        couple_nbr += nb.c_hat * x[static_cast<std::size_t>(nb.other)];
      }
      out.cap_delay[i] = half + couple_const + couple_own + couple_nbr + child_sum;
      out.cap_prime[i] = 0.5 * circuit.fringe_cap(v) + couple_const + child_sum;
      // Parent sees both π halves plus the downstream subtree; coupling is
      // included only in propagate mode.
      const double ground_down = half + child_sum;
      out.load_in[i] = half + ground_down;
      if (mode == CouplingLoadMode::kPropagateUpstream) {
        out.load_in[i] += couple_const + couple_own + couple_nbr;
      }
      break;
    }
    case NodeKind::kDriver: {
      out.cap_delay[i] = child_sum;
      out.cap_prime[i] = child_sum;
      out.load_in[i] = 0.0;  // drivers are roots; nothing is upstream
      break;
    }
    case NodeKind::kSource:
    case NodeKind::kSink:
      break;
  }
}

}  // namespace lrsizer::timing
