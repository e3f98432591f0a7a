// Required times and slacks: consistency with arrivals and path structure.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"
#include "timing/slack.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;

struct Analyzed {
  timing::LoadAnalysis loads;
  timing::ArrivalAnalysis arrivals;
  timing::SlackAnalysis slacks;
};

Analyzed analyze(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                 double bound) {
  Analyzed a;
  timing::compute_loads(circuit, coupling, circuit.sizes(), a.loads);
  timing::compute_arrivals(circuit, circuit.sizes(), a.loads, a.arrivals);
  timing::compute_slacks(circuit, a.arrivals, bound, a.slacks);
  return a;
}

TEST(Slack, ChainSlackEqualsBoundMinusDelayEverywhere) {
  auto c = ChainCircuit::make();
  c.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(c.circuit);
  // On a single path, every node's slack equals bound - critical delay.
  const auto probe = analyze(c.circuit, coupling, 1.0);
  const double bound = 1.25 * probe.arrivals.critical_delay;
  const auto a = analyze(c.circuit, coupling, bound);
  const double expected = bound - a.arrivals.critical_delay;
  for (netlist::NodeId v = 1; v < c.circuit.sink(); ++v) {
    EXPECT_NEAR(a.slacks.slack[static_cast<std::size_t>(v)], expected,
                1e-12 * bound);
  }
  EXPECT_NEAR(a.slacks.worst_slack, expected, 1e-12 * bound);
}

TEST(Slack, CriticalPathHasWorstSlack) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto probe = analyze(f.circuit, coupling, 1.0);
  const double bound = probe.arrivals.critical_delay;  // tight bound
  const auto a = analyze(f.circuit, coupling, bound);

  // Worst slack is 0 at a tight bound (within roundoff).
  EXPECT_NEAR(a.slacks.worst_slack, 0.0, 1e-12 * bound);
  // Every critical-path node carries the worst slack.
  for (netlist::NodeId v : timing::critical_path(f.circuit, a.arrivals)) {
    EXPECT_NEAR(a.slacks.slack[static_cast<std::size_t>(v)], a.slacks.worst_slack,
                1e-12 * bound);
  }
}

TEST(Slack, NegativeWhenBoundIsViolated) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto probe = analyze(f.circuit, coupling, 1.0);
  const double bound = 0.5 * probe.arrivals.critical_delay;
  const auto a = analyze(f.circuit, coupling, bound);
  EXPECT_LT(a.slacks.worst_slack, 0.0);
  EXPECT_NEAR(a.slacks.worst_slack, bound - probe.arrivals.critical_delay,
              1e-12 * bound);
}

TEST(Slack, SlackIsRequiredMinusArrival) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(2.0);
  const auto coupling = f.make_coupling();
  const auto probe = analyze(f.circuit, coupling, 1.0);
  const auto a = analyze(f.circuit, coupling, 1.1 * probe.arrivals.critical_delay);
  for (netlist::NodeId v = 1; v < f.circuit.sink(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    EXPECT_DOUBLE_EQ(a.slacks.slack[i], a.slacks.required[i] - a.arrivals.arrival[i]);
  }
}

TEST(Slack, RequiredTimesAreEdgeConsistent) {
  // req_j <= req_i - D_i for every edge (j, i): no consumer can demand later.
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto probe = analyze(f.circuit, coupling, 1.0);
  const auto a = analyze(f.circuit, coupling, probe.arrivals.critical_delay);
  for (netlist::NodeId v = 1; v < f.circuit.sink(); ++v) {
    for (netlist::NodeId j : f.circuit.inputs(v)) {
      if (j == f.circuit.source()) continue;
      EXPECT_LE(a.slacks.required[static_cast<std::size_t>(j)],
                a.slacks.required[static_cast<std::size_t>(v)] -
                    a.arrivals.delay[static_cast<std::size_t>(v)] + 1e-21);
    }
  }
}

TEST(Slack, CriticalityOrderStartsWithCriticalPath) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto probe = analyze(f.circuit, coupling, 1.0);
  const auto a = analyze(f.circuit, coupling, probe.arrivals.critical_delay);
  const auto order = timing::nodes_by_criticality(f.circuit, a.slacks);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(f.circuit.num_nodes() - 2));
  // Ascending slack.
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_LE(a.slacks.slack[static_cast<std::size_t>(order[k - 1])],
              a.slacks.slack[static_cast<std::size_t>(order[k])] + 1e-21);
  }
}

}  // namespace
