#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "timing/arrival.hpp"
#include "timing/metrics.hpp"
#include "util/assert.hpp"

namespace lrsizer::core {

std::vector<double> min_sizes(const netlist::Circuit& circuit) {
  std::vector<double> x(static_cast<std::size_t>(circuit.num_nodes()), 0.0);
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    x[static_cast<std::size_t>(v)] = circuit.lower_bound(v);
  }
  return x;
}

std::vector<double> uniform_sizes(const netlist::Circuit& circuit, double size) {
  std::vector<double> x(static_cast<std::size_t>(circuit.num_nodes()), 0.0);
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    x[static_cast<std::size_t>(v)] =
        std::clamp(size, circuit.lower_bound(v), circuit.upper_bound(v));
  }
  return x;
}

namespace {

double delay_at_uniform(const netlist::Circuit& circuit,
                        const layout::CouplingSet& coupling, double size) {
  const std::vector<double> x = uniform_sizes(circuit, size);
  return timing::compute_metrics(circuit, coupling, x).delay_s;
}

}  // namespace

std::vector<double> size_uniform_for_delay(const netlist::Circuit& circuit,
                                           const layout::CouplingSet& coupling,
                                           double delay_bound_s) {
  LRSIZER_ASSERT(delay_bound_s > 0.0);
  const double lo_size = circuit.tech().min_size;
  const double hi_size = circuit.tech().max_size;

  if (delay_at_uniform(circuit, coupling, lo_size) <= delay_bound_s) {
    return uniform_sizes(circuit, lo_size);
  }

  // Delay is not monotone in the uniform size: upsizing lowers gate/wire
  // resistance but raises the load every fixed driver sees, so the curve is
  // U-shaped. Scan a log-spaced grid for the smallest size meeting the
  // bound, then refine by bisection against the preceding grid point.
  constexpr int kGridSteps = 64;
  double prev = lo_size;
  double feasible = -1.0;
  for (int k = 1; k < kGridSteps; ++k) {
    const double s = lo_size * std::pow(hi_size / lo_size,
                                        static_cast<double>(k) / (kGridSteps - 1));
    if (delay_at_uniform(circuit, coupling, s) <= delay_bound_s) {
      feasible = s;
      break;
    }
    prev = s;
  }
  if (feasible < 0.0) {
    // Even the best uniform size misses the bound; return the grid minimum.
    double best_s = hi_size;
    double best_d = delay_at_uniform(circuit, coupling, hi_size);
    for (int k = 0; k < kGridSteps; ++k) {
      const double s = lo_size * std::pow(hi_size / lo_size,
                                          static_cast<double>(k) / (kGridSteps - 1));
      const double d = delay_at_uniform(circuit, coupling, s);
      if (d < best_d) {
        best_d = d;
        best_s = s;
      }
    }
    return uniform_sizes(circuit, best_s);
  }
  double lo = prev;       // infeasible side
  double hi = feasible;   // feasible side
  for (int iter = 0; iter < 50; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (delay_at_uniform(circuit, coupling, mid) <= delay_bound_s) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return uniform_sizes(circuit, hi);
}

OgwsResult run_delay_only_lr(const netlist::Circuit& circuit,
                             const layout::CouplingSet& coupling,
                             const Bounds& bounds, const OgwsOptions& options) {
  // Loosen power/noise so β and γ never activate: [3] optimizes area under
  // timing alone.
  Bounds loose = bounds;
  loose.cap_f *= 1e6;
  loose.noise_f *= 1e6;
  return run_ogws(circuit, coupling, loose, options);
}

}  // namespace lrsizer::core
