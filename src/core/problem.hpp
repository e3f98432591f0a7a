// Problem PP (paper §4.1): minimize area subject to arrival-time, power and
// crosstalk constraints plus size bounds.
//
// The paper does not state the bounds used in Table 1; its results imply an
// active noise bound at 10% of the initial noise (Fin/Init ≈ 0.1 on nearly
// every circuit) and a delay bound near the initial delay. We derive bounds
// from the metrics of the initial (unit-size) circuit via BoundFactors; see
// docs/ARCHITECTURE.md §Benches.
#pragma once

#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"
#include "timing/loads.hpp"

namespace lrsizer::core {

/// Constraint bounds in natural units.
struct Bounds {
  double delay_s = 0.0;  ///< A0
  double cap_f = 0.0;    ///< P0 expressed as capacitance: P_B / (V²f)
  double noise_f = 0.0;  ///< X0 bound on Σ ĉ_ij (x_i + x_j)
  /// Distributed crosstalk bounds (paper §4.1's per-net extension): for
  /// every wire i owning coupling pairs, Σ_{j∈I(i)} ĉ_ij (x_i+x_j) ≤
  /// per_net_noise_f[i]. Indexed by NodeId; empty disables the extension;
  /// entries of 0 mean "no constraint on this wire".
  std::vector<double> per_net_noise_f;

  bool per_net_enabled() const { return !per_net_noise_f.empty(); }
};

struct BoundFactors {
  double delay = 1.00;  ///< A0 = delay · D_init
  double power = 0.15;  ///< P0 = power · cap_init
  double noise = 0.10;  ///< X0 = noise · noise_init
  /// > 0 enables the distributed per-net bounds: X_i = factor · X_i(init).
  double per_net_noise = 0.0;
};

/// Bounds relative to the metrics at the circuit's current sizes.
Bounds derive_bounds(const netlist::Circuit& circuit,
                     const layout::CouplingSet& coupling,
                     const std::vector<double>& x, const BoundFactors& factors);

/// Forwards to derive_bounds; only perfbench/driver.cpp passes a mode.
inline Bounds derive_bounds(const netlist::Circuit& circuit,
                            const layout::CouplingSet& coupling,
                            const std::vector<double>& x, timing::CouplingLoadMode,
                            const BoundFactors& factors) {
  return derive_bounds(circuit, coupling, x, factors);
}

}  // namespace lrsizer::core
