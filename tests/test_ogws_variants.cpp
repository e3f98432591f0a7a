// OGWS variants: the literal additive subgradient rule, differentiated
// gates, a bound-factor sweep against exhaustive
// grid search on the chain circuit, and the dual step's bit-equality with a
// step that calls pow() on every multiplier and projects in separate passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/flow.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/channels.hpp"
#include "netlist/elaborator.hpp"
#include "netlist/generator.hpp"
#include "test_helpers.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"
#include "timing/metrics.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;


TEST(OgwsVariants, AdditiveSubgradientReachesFeasibility) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto bounds =
      core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), core::BoundFactors{});
  core::OgwsOptions options;
  options.step_rule = core::StepRule::kSubgradient;
  options.step0 = 0.25;
  options.max_iterations = 400;
  const auto result = core::run_ogws(f.circuit, coupling, bounds, options);
  EXPECT_LE(result.max_violation, 0.02);
  const auto m = timing::compute_metrics(f.circuit, coupling, result.sizes);
  EXPECT_LE(m.noise_f, bounds.noise_f * 1.02);
}

TEST(OgwsVariants, BothRulesAgreeOnTheOptimum) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto bounds =
      core::derive_bounds(f.circuit, coupling, f.circuit.sizes(), core::BoundFactors{});
  core::OgwsOptions mult;
  core::OgwsOptions sub;
  sub.step_rule = core::StepRule::kSubgradient;
  sub.step0 = 0.25;
  sub.max_iterations = 500;
  const auto a = core::run_ogws(f.circuit, coupling, bounds, mult);
  const auto b = core::run_ogws(f.circuit, coupling, bounds, sub);
  const auto ma = timing::compute_metrics(f.circuit, coupling, a.sizes);
  const auto mb = timing::compute_metrics(f.circuit, coupling, b.sizes);
  // The convex problem has one optimum; both searches must land within the
  // combined tolerance of it.
  EXPECT_NEAR(ma.area_um2, mb.area_um2, 0.06 * ma.area_um2);
}

TEST(OgwsVariants, FlowWithDifferentiatedGates) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 100;
  spec.num_wires = 220;
  spec.num_inputs = 12;
  spec.num_outputs = 8;
  spec.seed = 15;
  const auto logic = netlist::generate_circuit(spec);
  core::FlowOptions options;
  options.elab.differentiate_gate_types = true;
  const auto flow = test_support::run_flow(logic, options);
  EXPECT_LE(flow.ogws.max_violation, 0.03);
  EXPECT_LT(flow.final_metrics.area_um2, flow.init_metrics.area_um2);
  // Differentiated gates are heavier on average than the uniform model.
  core::FlowOptions uniform = options;
  uniform.elab.differentiate_gate_types = false;
  const auto base = test_support::run_flow(logic, uniform);
  EXPECT_GT(flow.init_metrics.area_um2, base.init_metrics.area_um2);
}

// Bound-factor sweep vs exhaustive grid search on the 3-component chain.
class ChainBruteForce : public ::testing::TestWithParam<double> {};

TEST_P(ChainBruteForce, OgwsWithinTenPercentOfGridOptimum) {
  const double delay_factor = GetParam();
  auto c = ChainCircuit::make();
  c.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(c.circuit);
  core::BoundFactors factors;
  factors.delay = delay_factor;
  factors.power = 0.6;
  const auto bounds =
      core::derive_bounds(c.circuit, coupling, c.circuit.sizes(), factors);

  const int steps = 20;
  std::vector<double> grid(steps);
  for (int k = 0; k < steps; ++k) {
    grid[static_cast<std::size_t>(k)] =
        0.1 * std::pow(100.0, static_cast<double>(k) / (steps - 1));
  }
  auto x = c.circuit.sizes();
  const netlist::NodeId c0 = c.circuit.first_component();
  double best = 1e300;
  for (double a : grid) {
    for (double b : grid) {
      for (double d : grid) {
        x[static_cast<std::size_t>(c0)] = a;
        x[static_cast<std::size_t>(c0 + 1)] = b;
        x[static_cast<std::size_t>(c0 + 2)] = d;
        const auto m = timing::compute_metrics(c.circuit, coupling, x);
        if (m.delay_s <= bounds.delay_s && m.cap_f <= bounds.cap_f) {
          best = std::min(best, m.area_um2);
        }
      }
    }
  }
  ASSERT_LT(best, 1e299);

  core::OgwsOptions options;
  options.max_iterations = 600;
  const auto result = core::run_ogws(c.circuit, coupling, bounds, options);
  const auto m = timing::compute_metrics(c.circuit, coupling, result.sizes);
  EXPECT_LE(m.delay_s, bounds.delay_s * 1.02);
  EXPECT_LE(m.area_um2, best * 1.10);
}

INSTANTIATE_TEST_SUITE_P(DelayFactors, ChainBruteForce,
                         ::testing::Values(0.85, 0.95, 1.05, 1.2),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "f" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// ---- dual step: the pow(1, rho) skip keeps every bit ----------------------

double relative_violation(double value, double bound) { return (value - bound) / bound; }

/// A5 as separate passes over every edge: clamp λ, β, γ and γ_net at 0,
/// then rescale each node's in-edges onto its out-edges, nodes from the
/// sink side.
void clamp_then_project(const netlist::Circuit& circuit, core::MultiplierState& m) {
  for (double& v : m.lambda) v = std::max(v, 0.0);
  m.beta = std::max(m.beta, 0.0);
  m.gamma = std::max(m.gamma, 0.0);
  for (double& v : m.gamma_net) v = std::max(v, 0.0);
  for (netlist::NodeId v = circuit.sink() - 1; v >= 1; --v) {
    double out_sum = 0.0;
    for (netlist::EdgeId e : circuit.output_edges(v)) {
      out_sum += m.lambda[static_cast<std::size_t>(e)];
    }
    const auto in_edges = circuit.input_edges(v);
    double in_sum = 0.0;
    for (netlist::EdgeId e : in_edges) in_sum += m.lambda[static_cast<std::size_t>(e)];
    if (in_sum > 0.0) {
      const double scale = out_sum / in_sum;
      for (netlist::EdgeId e : in_edges) m.lambda[static_cast<std::size_t>(e)] *= scale;
    } else {
      const double share = out_sum / static_cast<double>(in_edges.size());
      for (netlist::EdgeId e : in_edges) m.lambda[static_cast<std::size_t>(e)] = share;
    }
  }
}

/// core::dual_ascent_step before the multiplicative rule skipped pow() on
/// ratios of exactly 1 and before the λ step, clamp and projection became
/// one walk: every multiplier goes through pow (or the additive step) over
/// every edge, then A5 runs as separate passes. The oracle of the
/// bit-equality test below; returns how many λ edges had a ratio of 1 and
/// counts in `negative` the λ the step took below 0.
int pow_everywhere_dual_step(const netlist::Circuit& circuit,
                             const layout::CouplingSet& coupling,
                             const core::Bounds& bounds, const core::OgwsOptions& options,
                             const timing::ArrivalAnalysis& arrivals,
                             const std::vector<double>& x, double cap, double noise,
                             double rho, const core::DualScales& scales,
                             core::MultiplierState& m, int& negative) {
  int unit_ratios = 0;
  const bool per_net = bounds.per_net_enabled();
  if (options.step_rule == core::StepRule::kSubgradient) {
    for (netlist::NodeId v = 1; v < circuit.num_nodes(); ++v) {
      const auto in_nodes = circuit.inputs(v);
      const auto in_edges = circuit.input_edges(v);
      for (std::size_t idx = 0; idx < in_edges.size(); ++idx) {
        const auto j = static_cast<std::size_t>(in_nodes[idx]);
        const auto i = static_cast<std::size_t>(v);
        double slack = 0.0;
        if (v == circuit.sink()) {
          slack = arrivals.arrival[j] - bounds.delay_s;
        } else if (circuit.is_driver(v)) {
          slack = arrivals.delay[i] - arrivals.arrival[i];
        } else {
          slack = arrivals.arrival[j] + arrivals.delay[i] - arrivals.arrival[i];
        }
        m.lambda[static_cast<std::size_t>(in_edges[idx])] +=
            rho * scales.lambda_scale * (slack / bounds.delay_s);
      }
    }
    m.beta += rho * scales.beta_scale * relative_violation(cap, bounds.cap_f);
    m.gamma += rho * scales.gamma_scale * relative_violation(noise, bounds.noise_f);
    if (per_net) {
      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        const double bound_i = bounds.per_net_noise_f[i];
        if (bound_i <= 0.0) continue;
        m.gamma_net[i] += rho * (scales.area_ref / bound_i) *
                          relative_violation(coupling.owned_noise_linear(v, x), bound_i);
      }
    }
  } else {
    auto pow_clamped = [rho](double ratio) {
      return std::pow(std::clamp(ratio, 0.05, 20.0), rho);
    };
    for (netlist::NodeId v = 1; v < circuit.num_nodes(); ++v) {
      const auto in_nodes = circuit.inputs(v);
      const auto in_edges = circuit.input_edges(v);
      for (std::size_t idx = 0; idx < in_edges.size(); ++idx) {
        const auto j = static_cast<std::size_t>(in_nodes[idx]);
        const auto i = static_cast<std::size_t>(v);
        double ratio = 1.0;
        if (v == circuit.sink()) {
          ratio = arrivals.arrival[j] / bounds.delay_s;
        } else if (!circuit.is_driver(v)) {
          ratio = (arrivals.arrival[j] + arrivals.delay[i]) /
                  std::max(arrivals.arrival[i], 1e-30);
        }
        if (ratio == 1.0) ++unit_ratios;
        m.lambda[static_cast<std::size_t>(in_edges[idx])] *= pow_clamped(ratio);
      }
    }
    const double cap_ratio = cap / bounds.cap_f;
    const double noise_ratio = noise / bounds.noise_f;
    if (m.beta <= 0.0 && cap_ratio > 1.0) m.beta = 1e-3 * scales.beta_scale;
    if (m.gamma <= 0.0 && noise_ratio > 1.0) m.gamma = 1e-3 * scales.gamma_scale;
    m.beta *= pow_clamped(cap_ratio);
    m.gamma *= pow_clamped(noise_ratio);
    if (per_net) {
      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        const double bound_i = bounds.per_net_noise_f[i];
        if (bound_i <= 0.0) continue;
        const double ratio = coupling.owned_noise_linear(v, x) / bound_i;
        double& g = m.gamma_net[i];
        if (g <= 0.0 && ratio > 1.0) g = 1e-3 * scales.area_ref / bound_i;
        g *= pow_clamped(ratio);
      }
    }
  }
  negative = static_cast<int>(
      std::count_if(m.lambda.begin(), m.lambda.end(), [](double v) { return v < 0.0; }));
  clamp_then_project(circuit, m);
  return unit_ratios;
}

/// Entries of `a` and `b` whose bit patterns differ (-1 on a length mismatch).
int differing_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return -1;
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) ++differing;
  }
  return differing;
}

TEST(OgwsVariants, DualStepMatchesPowEverywhereBitForBit) {
  for (const core::StepRule rule :
       {core::StepRule::kMultiplicative, core::StepRule::kSubgradient}) {
    for (const double per_net : {0.0, 0.5}) {
      SCOPED_TRACE(std::string(rule == core::StepRule::kMultiplicative ? "multiplicative"
                                                                        : "subgradient") +
                   " per_net " + std::to_string(per_net));
      const auto spec = netlist::spec_for_profile("c432", 3);
      const auto logic = netlist::generate_circuit(spec);
      auto elab = netlist::elaborate(logic, netlist::TechParams{}, spec.elab);
      const auto channels = layout::assign_channels(elab.circuit, elab.net_of_node, logic);
      const auto coupling = layout::build_coupling_set(elab.circuit, channels.channels,
                                                       layout::NeighborOptions{});
      netlist::Circuit& circuit = elab.circuit;
      circuit.set_uniform_size(1.0);
      core::BoundFactors factors;
      factors.per_net_noise = per_net;
      const auto bounds =
          core::derive_bounds(circuit, coupling, circuit.sizes(), factors);
      ASSERT_EQ(bounds.per_net_enabled(), per_net > 0.0);

      // A few real iterations give multipliers and sizes off the start point.
      core::OgwsOptions options;
      options.step_rule = rule;
      options.step0 = rule == core::StepRule::kMultiplicative ? 4.0 : 0.25;
      options.max_iterations = 6;
      core::OgwsControl control;
      control.capture_warm_start = true;
      const auto run = core::run_ogws(circuit, coupling, bounds, options, control);
      const double area_ref = timing::total_area(circuit, circuit.sizes());
      const core::DualScales scales{area_ref, area_ref / bounds.delay_s,
                                    area_ref / bounds.cap_f, area_ref / bounds.noise_f};

      core::MultiplierState state(circuit);
      state.init_default(circuit);
      state.lambda = run.warm.lambda;
      state.beta = run.warm.beta;
      state.gamma = run.warm.gamma;
      state.gamma_net = run.warm.gamma_net;
      const std::vector<double>& x = run.sizes;
      timing::LoadAnalysis loads;
      timing::compute_loads(circuit, coupling, x, loads);
      timing::ArrivalAnalysis arrivals;
      timing::compute_arrivals(circuit, x, loads, arrivals);
      // One rounding step off on every 7th node, so some ratios sit a single
      // ulp away from 1 and only an exact comparison keeps them.
      for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component(); v += 7) {
        double& a = arrivals.arrival[static_cast<std::size_t>(v)];
        a = std::nextafter(a, 2.0 * a);
      }
      const double cap = timing::total_cap(circuit, x);
      const double noise = coupling.noise_linear(x);

      int stepped_negative = 0;
      for (int k = 7; k <= 10; ++k) {
        const double rho = options.step0 / std::sqrt(static_cast<double>(k));
        core::MultiplierState expected = state;
        int negative = 0;
        const int unit_ratios =
            pow_everywhere_dual_step(circuit, coupling, bounds, options, arrivals, x, cap,
                                     noise, rho, scales, expected, negative);
        stepped_negative += negative;
        // The walk's μ (A2 of the next iteration) against compute_mu on the
        // reference state; every entry is written, whatever it held.
        std::vector<double> mu(static_cast<std::size_t>(circuit.num_nodes()), -1.0);
        core::dual_ascent_step(circuit, coupling, bounds, options, arrivals, x, cap, noise,
                               rho, scales, state, &mu);
        std::vector<double> expected_mu;
        expected.compute_mu(circuit, expected_mu);
        if (rule == core::StepRule::kMultiplicative) {
          // Both paths are exercised: most edges have a ratio of exactly 1.
          EXPECT_GT(unit_ratios, circuit.num_edges() / 2);
          EXPECT_LT(unit_ratios, circuit.num_edges());
        }
        EXPECT_EQ(differing_bits(state.lambda, expected.lambda), 0) << "step " << k;
        EXPECT_EQ(differing_bits(mu, expected_mu), 0) << "step " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(state.beta),
                  std::bit_cast<std::uint64_t>(expected.beta));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(state.gamma),
                  std::bit_cast<std::uint64_t>(expected.gamma));
        EXPECT_EQ(differing_bits(state.gamma_net, expected.gamma_net), 0) << "step " << k;
      }
      // The additive rule's steps take some λ below 0, so the clamp is
      // exercised.
      if (rule == core::StepRule::kSubgradient) {
        EXPECT_GT(stepped_negative, 0);
      }
    }
  }
}

}  // namespace
