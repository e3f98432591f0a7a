// Build sanity smoke test: one end-to-end pass through the full two-stage
// pipeline, so ctest always exercises elaboration -> simulation/WOSS ->
// bounds -> OGWS even when run with a test filter. Kept deliberately small
// and assertion-light; the per-module suites carry the real coverage.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "netlist/bench_parser.hpp"
#include "test_helpers.hpp"
#include "timing/metrics.hpp"

namespace {

using namespace lrsizer;

// Stage 0 + 1 + 2 through the one-call API on a 3-gate netlist.
TEST(BuildSanity, TwoStageFlowRunsEndToEnd) {
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\n"
      "INPUT(b)\n"
      "OUTPUT(y)\n"
      "u = NAND(a, b)\n"
      "v = NOT(u)\n"
      "y = NAND(u, v)\n");
  core::FlowOptions options;
  options.num_vectors = 8;
  options.bound_factors.delay = 1.2;
  options.bound_factors.noise = 0.5;
  const auto flow = test_support::run_flow(logic, options);

  EXPECT_EQ(flow.circuit.num_gates(), 3);
  EXPECT_GT(flow.circuit.num_wires(), 0);
  EXPECT_GT(flow.bounds.delay_s, 0.0);
  EXPECT_GT(flow.final_metrics.area_um2, 0.0);
  // OGWS ran: it either converged or reports how close it got.
  EXPECT_GT(flow.ogws.iterations, 0);
  EXPECT_LE(flow.ogws.max_violation, 0.10);
}

// Stage 2 directly on the smallest hand-built fixture: bounds derivation
// plus OGWS on the driver -> wire -> gate -> wire chain.
TEST(BuildSanity, OgwsRunsOnChainFixture) {
  auto chain = test_support::ChainCircuit::make();
  chain.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(chain.circuit);
  core::BoundFactors factors;
  factors.delay = 1.2;
  factors.noise = 0.5;
  const auto bounds =
      core::derive_bounds(chain.circuit, coupling, chain.circuit.sizes(), factors);
  const auto result = core::run_ogws(chain.circuit, coupling, bounds);

  ASSERT_EQ(result.sizes.size(), chain.circuit.sizes().size());
  EXPECT_GT(result.sizes[static_cast<std::size_t>(chain.gate)], 0.0);
  const auto metrics = timing::compute_metrics(
      chain.circuit, coupling, result.sizes);
  EXPECT_LE(metrics.delay_s, bounds.delay_s * 1.02);
}

}  // namespace
