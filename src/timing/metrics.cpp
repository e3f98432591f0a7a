#include "timing/metrics.hpp"

#include "timing/arrival.hpp"
#include "util/assert.hpp"

namespace lrsizer::timing {

double total_area(const netlist::Circuit& circuit, const std::vector<double>& x) {
  double area = 0.0;
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    area += circuit.area_weight(v) * x[static_cast<std::size_t>(v)];
  }
  return area;
}

double total_cap(const netlist::Circuit& circuit, const std::vector<double>& x) {
  double cap = 0.0;
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    cap += circuit.ground_cap(v, x[static_cast<std::size_t>(v)]);
  }
  return cap;
}

Metrics compute_metrics(const netlist::Circuit& circuit,
                        const layout::CouplingSet& coupling,
                        const std::vector<double>& x) {
  LRSIZER_ASSERT(x.size() == static_cast<std::size_t>(circuit.num_nodes()));
  Metrics m;
  m.area_um2 = total_area(circuit, x);
  m.cap_f = total_cap(circuit, x);
  m.power_w = circuit.tech().power_per_farad() * m.cap_f;
  m.noise_f = coupling.noise_linear(x);
  m.noise_exact_f = coupling.noise_exact(x);

  LoadAnalysis loads;
  compute_loads(circuit, coupling, x, loads);
  ArrivalAnalysis arrivals;
  compute_arrivals(circuit, x, loads, arrivals);
  m.delay_s = arrivals.critical_delay;
  return m;
}

}  // namespace lrsizer::timing
