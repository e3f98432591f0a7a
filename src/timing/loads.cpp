#include "timing/loads.hpp"

#include "util/assert.hpp"

namespace lrsizer::timing {

void compute_loads(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                   const std::vector<double>& x, CouplingLoadMode mode,
                   LoadAnalysis& out) {
  using netlist::NodeId;

  const auto n = static_cast<std::size_t>(circuit.num_nodes());
  LRSIZER_ASSERT(x.size() == n);
  out.resize(n);

  // Reverse topological order = descending node index (index contract).
  for (NodeId v = circuit.sink() - 1; v >= 1; --v) {
    compute_node_loads(circuit, coupling, x, mode, out, v);
  }
}

}  // namespace lrsizer::timing
