#include "core/tilos.hpp"

#include <algorithm>

#include "timing/arrival.hpp"
#include "timing/metrics.hpp"
#include "util/assert.hpp"

namespace lrsizer::core {

namespace {

double delay_at(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                const std::vector<double>& x, timing::LoadAnalysis& loads,
                timing::ArrivalAnalysis& arrivals) {
  timing::compute_loads(circuit, coupling, x, loads);
  timing::compute_arrivals(circuit, x, loads, arrivals);
  return arrivals.critical_delay;
}

}  // namespace

TilosResult run_tilos(const netlist::Circuit& circuit,
                      const layout::CouplingSet& coupling, double delay_bound_s,
                      const TilosOptions& options) {
  LRSIZER_ASSERT(delay_bound_s > 0.0);
  LRSIZER_ASSERT(options.bump > 1.0);

  TilosResult result;
  result.sizes.assign(static_cast<std::size_t>(circuit.num_nodes()), 0.0);
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    result.sizes[static_cast<std::size_t>(v)] = circuit.lower_bound(v);
  }

  timing::LoadAnalysis loads;
  timing::ArrivalAnalysis arrivals;
  double delay = delay_at(circuit, coupling, result.sizes, loads, arrivals);

  while (delay > delay_bound_s && result.moves < options.max_moves) {
    const std::vector<netlist::NodeId> path = timing::critical_path(circuit, arrivals);

    // Exact sensitivity of every sized component on the critical path.
    netlist::NodeId best_node = netlist::kInvalidNode;
    double best_score = 0.0;
    double best_size = 0.0;
    for (netlist::NodeId v : path) {
      if (!circuit.is_sized(v)) continue;
      const auto i = static_cast<std::size_t>(v);
      const double trial_size =
          std::min(result.sizes[i] * options.bump, circuit.upper_bound(v));
      if (trial_size <= result.sizes[i] * (1.0 + 1e-12)) continue;  // at U_i

      const double saved = result.sizes[i];
      result.sizes[i] = trial_size;
      timing::LoadAnalysis trial_loads;
      timing::ArrivalAnalysis trial_arrivals;
      const double trial_delay =
          delay_at(circuit, coupling, result.sizes, trial_loads, trial_arrivals);
      result.sizes[i] = saved;

      const double delay_gain = delay - trial_delay;
      const double area_cost = circuit.area_weight(v) * (trial_size - saved);
      if (delay_gain <= 0.0 || area_cost <= 0.0) continue;
      const double score = delay_gain / area_cost;
      if (score > best_score) {
        best_score = score;
        best_node = v;
        best_size = trial_size;
      }
    }

    if (best_node == netlist::kInvalidNode) break;  // no move helps: stuck
    result.sizes[static_cast<std::size_t>(best_node)] = best_size;
    ++result.moves;
    delay = delay_at(circuit, coupling, result.sizes, loads, arrivals);
  }

  result.delay_s = delay;
  result.area_um2 = timing::total_area(circuit, result.sizes);
  result.met_bound = delay <= delay_bound_s;
  return result;
}

}  // namespace lrsizer::core
