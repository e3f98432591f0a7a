#include "core/problem.hpp"

#include "timing/metrics.hpp"
#include "util/assert.hpp"

namespace lrsizer::core {

Bounds derive_bounds(const netlist::Circuit& circuit,
                     const layout::CouplingSet& coupling,
                     const std::vector<double>& x, const BoundFactors& factors) {
  LRSIZER_ASSERT(factors.delay > 0.0 && factors.power > 0.0 && factors.noise > 0.0);
  const timing::Metrics m = timing::compute_metrics(circuit, coupling, x);
  Bounds bounds;
  bounds.delay_s = factors.delay * m.delay_s;
  bounds.cap_f = factors.power * m.cap_f;
  // A circuit with no coupling pairs has zero noise for every sizing; give
  // it an inactive (trivially satisfied) bound so the γ machinery is a
  // no-op rather than a division hazard.
  bounds.noise_f = m.noise_f > 0.0 ? factors.noise * m.noise_f : 1.0;

  if (factors.per_net_noise > 0.0) {
    bounds.per_net_noise_f.assign(static_cast<std::size_t>(circuit.num_nodes()), 0.0);
    for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
         ++v) {
      if (!circuit.is_wire(v) || coupling.owned_pairs(v).empty()) continue;
      bounds.per_net_noise_f[static_cast<std::size_t>(v)] =
          factors.per_net_noise * coupling.owned_noise_linear(v, x);
    }
  }
  return bounds;
}

}  // namespace lrsizer::core
