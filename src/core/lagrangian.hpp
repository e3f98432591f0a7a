// Evaluation of the Lagrangian L_{λ,β,γ} in its Theorem-4 form.
//
// Under flow conservation the arrival variables cancel and
//
//   L(x) = Σ α_i x_i + β (Σ c_i − P0) + γ (X(x) − X0)
//        + Σ_{i=1..n+s} μ_i D_i(x) − μ_sink · A0,
//
// where μ_i = Σ in-edge multipliers and μ_sink·A0 is the constant the sink
// edges contribute. min_x L = the dual function D(λ,β,γ); weak duality
// (D ≤ optimal area) is asserted by tests.
#pragma once

#include <vector>

#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/problem.hpp"
#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"

namespace lrsizer::core {

/// L at sizes `x` given node weights `mu` (from MultiplierState::compute_mu)
/// and the sink constant `mu_sink`. Runs one load pass. When `gamma`
/// carries per-net multipliers and `bounds` carries per-net bounds, the
/// distributed crosstalk terms Σ_i γ_i (X_i(x) − X_i^B) are included.
double lagrangian_value(const netlist::Circuit& circuit,
                        const layout::CouplingSet& coupling,
                        const std::vector<double>& x, const std::vector<double>& mu,
                        double mu_sink, double beta, const NoiseMultipliers& gamma,
                        const Bounds& bounds);

/// Precomputed scalar terms of L at `x`: exactly timing::total_area(x),
/// timing::total_cap(x) and coupling.noise_linear(x). The OGWS loop already
/// computes all three for its iterate metrics, so handing them over stops
/// the dual evaluation from re-deriving them.
struct LagrangianTerms {
  double area = 0.0;
  double cap = 0.0;
  double noise = 0.0;
};

/// Same value, but the Elmore delays come from a precomputed arrival
/// analysis at `x` (ArrivalAnalysis::delay[i] is exactly r_i·C_i) instead of
/// a fresh load pass, and the scalar terms from `terms` — the OGWS hot loop
/// already has all of it in hand, so this skips one full
/// O(|V|+|E|+|pairs|) load pass (plus its allocation) and the three scalar
/// sweeps per iteration. Bit-identical to the load-pass overload.
double lagrangian_value(const netlist::Circuit& circuit,
                        const layout::CouplingSet& coupling,
                        const std::vector<double>& x, const std::vector<double>& mu,
                        double mu_sink, double beta, const NoiseMultipliers& gamma,
                        const Bounds& bounds, const timing::ArrivalAnalysis& arrivals,
                        const LagrangianTerms& terms);

}  // namespace lrsizer::core
