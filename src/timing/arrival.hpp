// Elmore delays and arrival times (paper §4.1, problem PP).
//
//   D_i = r_i · C_i            (C_i from compute_loads)
//   a_i = D_i + max_{j ∈ input(i)} a_j   (a_source = 0)
//   critical delay = max_{j ∈ input(sink)} a_j
//
// The arrival reformulation replaces the exponentially many path
// constraints Σ_{i∈π} D_i ≤ A0 with one inequality per edge.
#pragma once

#include <vector>

#include "netlist/circuit.hpp"
#include "timing/loads.hpp"

namespace lrsizer::timing {

struct ArrivalAnalysis {
  std::vector<double> delay;    ///< D_i per node (0 for source/sink)
  std::vector<double> arrival;  ///< a_i per node (source = 0)
  double critical_delay = 0.0;  ///< D of the circuit

  void resize(std::size_t n) {
    // Same shape-keyed refill skip as LoadAnalysis::resize: the pass writes
    // every node 1..sink-1 plus arrival[sink]; the remaining entries keep
    // the first-time zeros.
    if (delay.size() == n) return;
    delay.assign(n, 0.0);
    arrival.assign(n, 0.0);
  }
};

/// One topological sweep; O(|V| + |E|).
void compute_arrivals(const netlist::Circuit& circuit, const std::vector<double>& x,
                      const LoadAnalysis& loads, ArrivalAnalysis& out);

/// Nodes of one critical path, source-side first (excludes source/sink).
std::vector<netlist::NodeId> critical_path(const netlist::Circuit& circuit,
                                           const ArrivalAnalysis& arrivals);

}  // namespace lrsizer::timing
