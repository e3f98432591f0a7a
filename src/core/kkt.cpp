#include "core/kkt.hpp"

#include <algorithm>
#include <cmath>

#include "timing/arrival.hpp"
#include "timing/metrics.hpp"
#include "timing/upstream.hpp"
#include "util/assert.hpp"

namespace lrsizer::core {

double KktResiduals::max_residual() const {
  return std::max({flow, stationarity, complementary, primal_delay, primal_power,
                   primal_noise});
}

KktResiduals check_kkt(const netlist::Circuit& circuit,
                       const layout::CouplingSet& coupling,
                       const MultiplierState& multipliers, const Bounds& bounds,
                       const std::vector<double>& x) {
  KktResiduals res;

  // (1) flow conservation.
  res.flow = multipliers.flow_residual(circuit);

  // Shared analyses.
  std::vector<double> mu;
  multipliers.compute_mu(circuit, mu);
  timing::LoadAnalysis loads;
  timing::compute_loads(circuit, coupling, x, loads);
  std::vector<double> r_up;
  timing::compute_weighted_upstream(circuit, x, mu, r_up);
  timing::ArrivalAnalysis arrivals;
  timing::compute_arrivals(circuit, x, loads, arrivals);

  // (5) stationarity of the sizing.
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    const double opt =
        optimal_resize(circuit, coupling, mu, multipliers.beta, multipliers.gamma, x,
                       loads, r_up, v);
    const double target = std::clamp(opt, circuit.lower_bound(v), circuit.upper_bound(v));
    res.stationarity =
        std::max(res.stationarity, std::abs(x[i] - target) / std::max(x[i], 1e-30));
  }

  // (2) complementary slackness, normalized per constraint family. The λ
  // slacks are scaled by A0 and by the largest multiplier so the products
  // are dimensionless.
  double lambda_max = 1e-30;
  for (double l : multipliers.lambda) lambda_max = std::max(lambda_max, l);
  for (netlist::NodeId v = 1; v < circuit.num_nodes(); ++v) {
    const auto in_nodes = circuit.inputs(v);
    const auto in_edges = circuit.input_edges(v);
    for (std::size_t idx = 0; idx < in_edges.size(); ++idx) {
      const auto j = static_cast<std::size_t>(in_nodes[idx]);
      const auto i = static_cast<std::size_t>(v);
      double slack = 0.0;
      if (v == circuit.sink()) {
        slack = bounds.delay_s - arrivals.arrival[j];
      } else if (circuit.is_driver(v)) {
        slack = arrivals.arrival[i] - arrivals.delay[i];
      } else {
        slack = arrivals.arrival[i] - arrivals.arrival[j] - arrivals.delay[i];
      }
      const double product = (multipliers.lambda[static_cast<std::size_t>(in_edges[idx])] /
                              lambda_max) *
                             (slack / bounds.delay_s);
      res.complementary = std::max(res.complementary, std::abs(product));
    }
  }
  const double cap = timing::total_cap(circuit, x);
  const double noise = coupling.noise_linear(x);
  if (multipliers.beta > 0.0) {
    res.complementary = std::max(
        res.complementary, std::abs((bounds.cap_f - cap) / bounds.cap_f));
  }
  if (multipliers.gamma > 0.0) {
    res.complementary = std::max(
        res.complementary, std::abs((bounds.noise_f - noise) / bounds.noise_f));
  }

  // (3) primal feasibility.
  res.primal_delay =
      std::max(0.0, (arrivals.critical_delay - bounds.delay_s) / bounds.delay_s);
  res.primal_power = std::max(0.0, (cap - bounds.cap_f) / bounds.cap_f);
  res.primal_noise = std::max(0.0, (noise - bounds.noise_f) / bounds.noise_f);

  // (4) holds by construction after a dual step, which clamps every
  // multiplier at 0; assert anyway.
  for (double l : multipliers.lambda) LRSIZER_ASSERT(l >= 0.0);
  LRSIZER_ASSERT(multipliers.beta >= 0.0 && multipliers.gamma >= 0.0);

  return res;
}

}  // namespace lrsizer::core
