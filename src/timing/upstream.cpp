#include "timing/upstream.hpp"

#include "util/assert.hpp"

namespace lrsizer::timing {

// The per-node body, shared verbatim by the full sweep and the incremental
// path so both are bit-identical. Writes r_up[v] only; reads the parents'
// r_up (smaller indices).
void compute_node_upstream(const netlist::Circuit& circuit,
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

void compute_weighted_upstream(const netlist::Circuit& circuit,
                               const std::vector<double>& x,
                               const std::vector<double>& mu,
                               std::vector<double>& r_up) {
  using netlist::NodeId;

  const auto n = static_cast<std::size_t>(circuit.num_nodes());
  LRSIZER_ASSERT(x.size() == n);
  LRSIZER_ASSERT(mu.size() == n);
  // Every node 1..sink-1 is written below; source/sink keep the first-time
  // zeros (shape-keyed refill skip, see LoadAnalysis::resize).
  if (r_up.size() != n) r_up.assign(n, 0.0);

  for (NodeId v = 1; v < circuit.sink(); ++v) compute_node_upstream(circuit, x, mu, r_up, v);
}

}  // namespace lrsizer::timing
