// Baseline sizers for the benches and ablations.
//
//  * min_sizes            — every component at its lower bound.
//  * uniform_sizes        — every component at one common size.
//  * size_uniform_for_delay — the cheapest single scale factor that meets
//                           the delay bound (bisection); the "dumb knob" a
//                           designer would turn without per-component LR.
//  * delay-only LR        — the paper's reference [3] (Chen–Chu–Wong
//                           ICCAD'98): run OGWS with the power and noise
//                           bounds effectively removed.
#pragma once

#include <vector>

#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"

namespace lrsizer::core {

std::vector<double> min_sizes(const netlist::Circuit& circuit);
std::vector<double> uniform_sizes(const netlist::Circuit& circuit, double size);

/// Smallest uniform size whose critical delay meets bounds.delay_s; returns
/// the per-node size vector (clamped into each component's box). If even the
/// maximum uniform size misses the bound, returns that maximum.
std::vector<double> size_uniform_for_delay(const netlist::Circuit& circuit,
                                           const layout::CouplingSet& coupling,
                                           double delay_bound_s);

/// Reference [3]: simultaneous gate/wire sizing under the delay bound only.
OgwsResult run_delay_only_lr(const netlist::Circuit& circuit,
                             const layout::CouplingSet& coupling,
                             const Bounds& bounds, const OgwsOptions& options);

}  // namespace lrsizer::core
