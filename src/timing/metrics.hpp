// The four Table 1 quantities: area, power (as total capacitance), coupling
// noise, and critical-path delay, all evaluated at a given size vector x.
// compute_metrics is the single evaluation point every stage shares: bounds
// derivation scales its output, OGWS checks feasibility against it, and the
// benches print it before/after sizing.
#pragma once

#include <vector>

#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"
#include "timing/loads.hpp"

namespace lrsizer::timing {

struct Metrics {
  double area_um2 = 0.0;   ///< Σ α_i x_i over sized components
  double power_w = 0.0;    ///< V²·f·Σ c_i (ground capacitance, paper §4.1)
  double cap_f = 0.0;      ///< Σ c_i — the normalized power P/(V²f)
  double noise_f = 0.0;    ///< Σ_{i∈W} Σ_{j∈I(i)} ĉ_ij(x_i+x_j) (Table 1 metric)
  double noise_exact_f = 0.0;  ///< Σ of exact Eq. 2 coupling capacitances
  double delay_s = 0.0;    ///< critical-path delay
};

/// Σ α_i x_i alone (the optimization objective).
double total_area(const netlist::Circuit& circuit, const std::vector<double>& x);

/// Σ (ĉ_i x_i + f_i) over components — the power constraint's left side.
double total_cap(const netlist::Circuit& circuit, const std::vector<double>& x);

/// Full metric bundle at sizes `x` (runs a load + arrival pass).
Metrics compute_metrics(const netlist::Circuit& circuit,
                        const layout::CouplingSet& coupling,
                        const std::vector<double>& x);

/// Forwards to compute_metrics; only perfbench/driver.cpp passes a mode.
inline Metrics compute_metrics(const netlist::Circuit& circuit,
                               const layout::CouplingSet& coupling,
                               const std::vector<double>& x, CouplingLoadMode) {
  return compute_metrics(circuit, coupling, x);
}

}  // namespace lrsizer::timing
