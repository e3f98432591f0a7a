// Multiplier state: flow conservation (Theorem 3), projection, μ extraction.
#include <gtest/gtest.h>

#include "core/multipliers.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;

TEST(Multipliers, DefaultInitSatisfiesKcl) {
  const auto f = Fig1Circuit::make();
  core::MultiplierState m(f.circuit);
  m.init_default(f.circuit);
  EXPECT_LT(m.flow_residual(f.circuit), 1e-12);
  // Sink in-edges were seeded at 1.
  EXPECT_DOUBLE_EQ(m.sink_mu(f.circuit), 1.0);
}

TEST(Multipliers, ProjectionRestoresKclAfterRandomPerturbation) {
  const auto f = Fig1Circuit::make();
  core::MultiplierState m(f.circuit);
  m.init_default(f.circuit);
  util::Rng rng(3);
  for (double& l : m.lambda) l += rng.uniform(0.0, 2.0);
  EXPECT_GT(m.flow_residual(f.circuit), 0.01);  // perturbed
  m.project_flow(f.circuit);
  EXPECT_LT(m.flow_residual(f.circuit), 1e-12);
}

TEST(Multipliers, ProjectionPreservesSinkEdges) {
  // Sink in-edges are the A0-constraint multipliers — the projection must
  // not rescale them (they are the boundary values that drive everything).
  const auto f = Fig1Circuit::make();
  core::MultiplierState m(f.circuit);
  m.init_default(f.circuit);
  for (netlist::EdgeId e : f.circuit.input_edges(f.circuit.sink())) {
    m.lambda[static_cast<std::size_t>(e)] = 3.5;
  }
  m.project_flow(f.circuit);
  for (netlist::EdgeId e : f.circuit.input_edges(f.circuit.sink())) {
    EXPECT_DOUBLE_EQ(m.lambda[static_cast<std::size_t>(e)], 3.5);
  }
  EXPECT_LT(m.flow_residual(f.circuit), 1e-12);
}

TEST(Multipliers, SinkPressurePropagatesToSource) {
  // Scaling the sink edges by 10 must scale every multiplier by 10 after
  // projection (total flow is set at the sink boundary).
  const auto f = Fig1Circuit::make();
  core::MultiplierState a(f.circuit);
  a.init_default(f.circuit);
  core::MultiplierState b(f.circuit);
  b.init_default(f.circuit);
  for (netlist::EdgeId e : f.circuit.input_edges(f.circuit.sink())) {
    b.lambda[static_cast<std::size_t>(e)] *= 10.0;
  }
  b.project_flow(f.circuit);
  for (netlist::EdgeId e = 0; e < f.circuit.num_edges(); ++e) {
    EXPECT_NEAR(b.lambda[static_cast<std::size_t>(e)],
                10.0 * a.lambda[static_cast<std::size_t>(e)], 1e-12);
  }
}

TEST(Multipliers, ZeroInEdgesGetEqualShares) {
  const auto c = ChainCircuit::make();
  core::MultiplierState m(c.circuit);
  std::fill(m.lambda.begin(), m.lambda.end(), 0.0);
  for (netlist::EdgeId e : c.circuit.input_edges(c.circuit.sink())) {
    m.lambda[static_cast<std::size_t>(e)] = 4.0;
  }
  m.project_flow(c.circuit);
  EXPECT_LT(m.flow_residual(c.circuit), 1e-12);
  // The chain has one path: every edge carries the full flow.
  for (netlist::EdgeId e = 0; e < c.circuit.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(m.lambda[static_cast<std::size_t>(e)], 4.0);
  }
}

TEST(Multipliers, ComputeMuSumsInEdges) {
  const auto f = Fig1Circuit::make();
  core::MultiplierState m(f.circuit);
  m.init_default(f.circuit);
  std::vector<double> mu;
  m.compute_mu(f.circuit, mu);
  ASSERT_EQ(mu.size(), static_cast<std::size_t>(f.circuit.num_nodes()));
  EXPECT_DOUBLE_EQ(mu[0], 0.0);  // source has no in-edges
  for (netlist::NodeId v = 1; v < f.circuit.num_nodes(); ++v) {
    double manual = 0.0;
    for (netlist::EdgeId e : f.circuit.input_edges(v)) {
      manual += m.lambda[static_cast<std::size_t>(e)];
    }
    EXPECT_DOUBLE_EQ(mu[static_cast<std::size_t>(v)], manual);
  }
  // KCL in μ form: μ_i equals the out-sum for internal nodes — so total
  // sink μ equals total source outflow.
  EXPECT_NEAR(m.sink_mu(f.circuit), 1.0, 1e-12);
}

TEST(Multipliers, FlowConservationMeansMuInEqualsOut) {
  // After projection, μ_i = Σ out-edges for every component: Theorem 3.
  const auto f = Fig1Circuit::make();
  core::MultiplierState m(f.circuit);
  m.init_default(f.circuit);
  util::Rng rng(5);
  for (double& l : m.lambda) l *= rng.uniform(0.5, 2.0);
  m.project_flow(f.circuit);
  std::vector<double> mu;
  m.compute_mu(f.circuit, mu);
  for (netlist::NodeId v = 1; v < f.circuit.sink(); ++v) {
    double out = 0.0;
    for (netlist::EdgeId e : f.circuit.output_edges(v)) {
      out += m.lambda[static_cast<std::size_t>(e)];
    }
    EXPECT_NEAR(mu[static_cast<std::size_t>(v)], out,
                1e-12 * std::max(1.0, out));
  }
}

}  // namespace
