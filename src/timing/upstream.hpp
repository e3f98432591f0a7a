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
#include "util/parallel.hpp"

namespace lrsizer::timing {

/// One topological sweep; O(|V| + |E|). `mu` is indexed by NodeId. With a
/// parallel `exec`, runs wavefront-by-wavefront over
/// `circuit.forward_levels()` — bit-identical to the serial pass at any
/// thread count.
void compute_weighted_upstream(const netlist::Circuit& circuit,
                               const std::vector<double>& x,
                               const std::vector<double>& mu,
                               std::vector<double>& r_up,
                               util::Executor* exec = nullptr);

/// Recompute node v's r_up entry in place. This is the exact per-node body
/// of compute_weighted_upstream (the full sweep calls it), so re-running it
/// over any superset of the nodes whose inputs (fanin sizes and μ, wire
/// fanins' r_up) changed — in ascending node order — yields r_up
/// bit-identical to a full sweep: same pure function, same inputs. The
/// worklist LRS sweep uses this for incremental upstream maintenance, the
/// twin of compute_node_loads. `r_up` must be sized and v's wire fanins'
/// entries must be final.
void compute_node_upstream(const netlist::Circuit& circuit,
                           const std::vector<double>& x,
                           const std::vector<double>& mu,
                           std::vector<double>& r_up, netlist::NodeId v);

}  // namespace lrsizer::timing
