// Weighted upstream resistance R_i (paper §2.1 / Theorem 5).
//
// R_i = Σ_{k ∈ upstream(i)} μ_k · r_k, where upstream(i) is stage-local:
// the chain of wires from component i back to (and including) the driving
// gate or input driver of i's stage. Those are exactly the components whose
// Elmore delay contains i's capacitance, so ∂(Σ μ_k D_k)/∂c_i = R_i.
//
// Recursion over the circuit graph (one topological sweep):
//   R_i = Σ_{p ∈ input(i), p ≠ source} [ μ_p·r_p + (p is a wire ? R_p : 0) ]
// — gates and drivers terminate the recursion because their resistance
// isolates everything further upstream from i's load.
//
// With μ ≡ 1 this degenerates to the plain upstream resistance of §2.1.
#pragma once

#include <vector>

#include "netlist/circuit.hpp"

namespace lrsizer::timing {

/// One topological sweep; O(|V| + |E|). `mu` is indexed by NodeId.
void compute_weighted_upstream(const netlist::Circuit& circuit,
                               const std::vector<double>& x,
                               const std::vector<double>& mu,
                               std::vector<double>& r_up);

/// Recompute node v's r_up entry in place: the per-node body of
/// compute_weighted_upstream. LRS's forward walk calls it for each
/// component just before resizing it, from the sizes its fanins got earlier
/// in the same pass. `r_up` must be sized and v's wire fanins' entries must
/// be final. Writes r_up[v] only. Inline because both callers run it once
/// per node per pass.
inline void compute_node_upstream(const netlist::Circuit& circuit,
                                  const std::vector<double>& x,
                                  const std::vector<double>& mu,
                                  std::vector<double>& r_up, netlist::NodeId v) {
  double acc = 0.0;
  for (netlist::NodeId p : circuit.inputs(v)) {
    if (p == circuit.source()) continue;  // drivers: nothing upstream
    const auto pi = static_cast<std::size_t>(p);
    acc += mu[pi] * circuit.resistance(p, x[pi]);
    if (circuit.is_wire(p)) acc += r_up[pi];
  }
  r_up[static_cast<std::size_t>(v)] = acc;
}

}  // namespace lrsizer::timing
