#include "core/lagrangian.hpp"

#include "timing/metrics.hpp"
#include "util/assert.hpp"

namespace lrsizer::core {

namespace {

/// Theorem-4 L with the scalar terms precomputed and the per-node Elmore
/// delay supplied by `delay_of(v)` — shared by both public overloads so
/// their accumulation order (and thus their bits) is identical.
template <typename DelayFn>
double lagrangian_impl(const netlist::Circuit& circuit,
                       const layout::CouplingSet& coupling,
                       const std::vector<double>& x, const std::vector<double>& mu,
                       double mu_sink, double beta, const NoiseMultipliers& gamma,
                       const Bounds& bounds, const LagrangianTerms& terms,
                       DelayFn&& delay_of) {
  double value = terms.area;
  value += beta * (terms.cap - bounds.cap_f);
  value += gamma.total * (terms.noise - bounds.noise_f);
  if (gamma.per_net != nullptr && bounds.per_net_enabled()) {
    for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
         ++v) {
      const auto i = static_cast<std::size_t>(v);
      const double g = (*gamma.per_net)[i];
      if (g <= 0.0) continue;
      value += g * (coupling.owned_noise_linear(v, x) - bounds.per_net_noise_f[i]);
    }
  }
  for (netlist::NodeId v = 1; v < circuit.sink(); ++v) {
    value += mu[static_cast<std::size_t>(v)] * delay_of(v);
  }
  value -= mu_sink * bounds.delay_s;
  return value;
}

}  // namespace

double lagrangian_value(const netlist::Circuit& circuit,
                        const layout::CouplingSet& coupling,
                        const std::vector<double>& x, const std::vector<double>& mu,
                        double mu_sink, double beta, const NoiseMultipliers& gamma,
                        const Bounds& bounds) {
  // Standalone evaluation: one fresh load pass, delays folded in on the fly,
  // scalar terms derived here. The OGWS hot loop uses the ArrivalAnalysis
  // overload instead and skips all of it.
  timing::LoadAnalysis loads;
  timing::compute_loads(circuit, coupling, x, loads);
  const LagrangianTerms terms{timing::total_area(circuit, x),
                              timing::total_cap(circuit, x),
                              coupling.noise_linear(x)};
  return lagrangian_impl(circuit, coupling, x, mu, mu_sink, beta, gamma, bounds,
                         terms, [&](netlist::NodeId v) {
                           const auto i = static_cast<std::size_t>(v);
                           return circuit.resistance(v, x[i]) * loads.cap_delay[i];
                         });
}

double lagrangian_value(const netlist::Circuit& circuit,
                        const layout::CouplingSet& coupling,
                        const std::vector<double>& x, const std::vector<double>& mu,
                        double mu_sink, double beta, const NoiseMultipliers& gamma,
                        const Bounds& bounds, const timing::ArrivalAnalysis& arrivals,
                        const LagrangianTerms& terms) {
  // ArrivalAnalysis::delay[v] is exactly r_v·C_v at `x`, so this is
  // bit-identical to the load-pass overload — minus the pass and the three
  // scalar sweeps.
  LRSIZER_ASSERT(arrivals.delay.size() == x.size());
  return lagrangian_impl(circuit, coupling, x, mu, mu_sink, beta, gamma, bounds,
                         terms, [&](netlist::NodeId v) {
                           return arrivals.delay[static_cast<std::size_t>(v)];
                         });
}

}  // namespace lrsizer::core
