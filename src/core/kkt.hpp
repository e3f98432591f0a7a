// KKT / optimality diagnostics for Theorem 6.
//
// At a primal-dual optimum:
//   (1) flow conservation on λ,
//   (2) complementary slackness: every multiplier × its constraint slack = 0,
//   (3) primal feasibility,
//   (4) nonnegative multipliers,
//   (5) x_i = clamp(opt_i) for every component (stationarity).
//
// This module measures the residual of each condition for a given
// (x, λ, β, γ); tests assert the residuals shrink at convergence and the
// benches can print them as a certificate.
#pragma once

#include <vector>

#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/problem.hpp"
#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"

namespace lrsizer::core {

struct KktResiduals {
  double flow = 0.0;            ///< max relative KCL violation on λ
  double stationarity = 0.0;    ///< max_i |x_i − clamp(opt_i)| / x_i
  double complementary = 0.0;   ///< max normalized multiplier·slack product
  double primal_delay = 0.0;    ///< max(0, (D − A0)/A0)
  double primal_power = 0.0;    ///< max(0, (Σc − P0)/P0)
  double primal_noise = 0.0;    ///< max(0, (X − X0)/X0)

  double max_residual() const;
};

KktResiduals check_kkt(const netlist::Circuit& circuit,
                       const layout::CouplingSet& coupling,
                       const MultiplierState& multipliers, const Bounds& bounds,
                       const std::vector<double>& x);

}  // namespace lrsizer::core
