// Arrival times vs exhaustive path enumeration; critical path extraction.
#include <gtest/gtest.h>

#include <functional>

#include "test_helpers.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;

/// Longest source->sink path delay by explicit DFS over all paths.
double brute_force_delay(const netlist::Circuit& c,
                         const timing::ArrivalAnalysis& a) {
  double best = 0.0;
  std::function<void(netlist::NodeId, double)> dfs = [&](netlist::NodeId v,
                                                         double acc) {
    if (v == c.sink()) {
      best = std::max(best, acc);
      return;
    }
    const double here =
        v == c.source() ? 0.0 : a.delay[static_cast<std::size_t>(v)];
    for (netlist::NodeId o : c.outputs(v)) dfs(o, acc + here);
  };
  // Start below the source so the source contributes nothing.
  for (netlist::NodeId d : c.outputs(c.source())) dfs(d, 0.0);
  return best;
}

TEST(Arrival, ChainSumsComponentDelays) {
  auto c = ChainCircuit::make();
  c.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(c.circuit);
  timing::LoadAnalysis loads;
  timing::compute_loads(c.circuit, coupling, c.circuit.sizes(), loads);
  timing::ArrivalAnalysis a;
  timing::compute_arrivals(c.circuit, c.circuit.sizes(), loads, a);

  const double sum = a.delay[static_cast<std::size_t>(c.driver)] +
                     a.delay[static_cast<std::size_t>(c.wire_in)] +
                     a.delay[static_cast<std::size_t>(c.gate)] +
                     a.delay[static_cast<std::size_t>(c.wire_out)];
  EXPECT_NEAR(a.critical_delay, sum, 1e-18);
  // Elmore D_i = r_i * C_i spot check on the gate.
  const netlist::TechParams tech;
  EXPECT_NEAR(a.delay[static_cast<std::size_t>(c.gate)],
              tech.gate_unit_res * loads.cap_delay[static_cast<std::size_t>(c.gate)],
              1e-18);
}

TEST(Arrival, MatchesBruteForcePathEnumeration) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  timing::LoadAnalysis loads;
  timing::compute_loads(f.circuit, coupling, f.circuit.sizes(), loads);
  timing::ArrivalAnalysis a;
  timing::compute_arrivals(f.circuit, f.circuit.sizes(), loads, a);
  EXPECT_NEAR(a.critical_delay, brute_force_delay(f.circuit, a), 1e-18);
}

TEST(Arrival, MatchesBruteForceUnderRandomSizes) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    auto x = f.circuit.sizes();
    for (netlist::NodeId v = f.circuit.first_component();
         v < f.circuit.end_component(); ++v) {
      x[static_cast<std::size_t>(v)] = rng.uniform(0.1, 10.0);
    }
    timing::LoadAnalysis loads;
    timing::compute_loads(f.circuit, coupling, x, loads);
    timing::ArrivalAnalysis a;
    timing::compute_arrivals(f.circuit, x, loads, a);
    EXPECT_NEAR(a.critical_delay, brute_force_delay(f.circuit, a),
                1e-12 * a.critical_delay);
  }
}

TEST(Arrival, ArrivalsAreEdgeConsistent) {
  // a_i >= a_j + D_i for every edge (j, i): the constraint form of PP.
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(2.0);
  const auto coupling = f.make_coupling();
  timing::LoadAnalysis loads;
  timing::compute_loads(f.circuit, coupling, f.circuit.sizes(), loads);
  timing::ArrivalAnalysis a;
  timing::compute_arrivals(f.circuit, f.circuit.sizes(), loads, a);
  for (netlist::NodeId v = 1; v < f.circuit.sink(); ++v) {
    for (netlist::NodeId j : f.circuit.inputs(v)) {
      EXPECT_GE(a.arrival[static_cast<std::size_t>(v)] + 1e-21,
                a.arrival[static_cast<std::size_t>(j)] +
                    a.delay[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Arrival, CriticalPathIsConnectedAndCritical) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  timing::LoadAnalysis loads;
  timing::compute_loads(f.circuit, coupling, f.circuit.sizes(), loads);
  timing::ArrivalAnalysis a;
  timing::compute_arrivals(f.circuit, f.circuit.sizes(), loads, a);
  const auto path = timing::critical_path(f.circuit, a);
  ASSERT_FALSE(path.empty());
  // Path delays sum to the critical delay.
  double sum = 0.0;
  for (netlist::NodeId v : path) sum += a.delay[static_cast<std::size_t>(v)];
  EXPECT_NEAR(sum, a.critical_delay, 1e-18);
  // Path is connected front-to-back.
  for (std::size_t k = 1; k < path.size(); ++k) {
    bool connected = false;
    for (netlist::NodeId o : f.circuit.outputs(path[k - 1])) {
      connected |= (o == path[k]);
    }
    EXPECT_TRUE(connected) << "path break at " << k;
  }
  // Starts at a driver, ends at a primary output component.
  EXPECT_TRUE(f.circuit.is_driver(path.front()));
  bool drives_sink = false;
  for (netlist::NodeId o : f.circuit.outputs(path.back())) {
    drives_sink |= (o == f.circuit.sink());
  }
  EXPECT_TRUE(drives_sink);
}

TEST(Arrival, UpsizingTheCriticalGateReducesItsDelay) {
  auto c = ChainCircuit::make();
  c.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(c.circuit);
  timing::LoadAnalysis loads;
  timing::compute_loads(c.circuit, coupling, c.circuit.sizes(), loads);
  timing::ArrivalAnalysis before;
  timing::compute_arrivals(c.circuit, c.circuit.sizes(), loads, before);

  auto x = c.circuit.sizes();
  x[static_cast<std::size_t>(c.gate)] = 4.0;
  timing::compute_loads(c.circuit, coupling, x, loads);
  timing::ArrivalAnalysis after;
  timing::compute_arrivals(c.circuit, x, loads, after);
  EXPECT_LT(after.delay[static_cast<std::size_t>(c.gate)],
            before.delay[static_cast<std::size_t>(c.gate)]);
}

}  // namespace
