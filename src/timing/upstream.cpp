#include "timing/upstream.hpp"

#include "util/assert.hpp"

namespace lrsizer::timing {

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
