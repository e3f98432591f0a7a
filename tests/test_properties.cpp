// Parameterized property sweeps across seeds, circuit sizes and options:
// the invariants that must hold for *any* instance, not just the fixtures.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/flow.hpp"
#include "layout/ordering.hpp"
#include "netlist/generator.hpp"
#include "sim/patterns.hpp"
#include "sim/similarity.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "timing/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;

// ---------------------------------------------------------------------------
// Flow invariants over random circuits.
// ---------------------------------------------------------------------------

struct FlowCase {
  std::int32_t gates;
  std::int32_t wires;
  std::int32_t inputs;
  std::int32_t outputs;
  std::int32_t depth;
  std::uint64_t seed;
};

// Printed by value, like TruncCase below: the default byte dump would put the
// struct's padding bytes in the test names.
void PrintTo(const FlowCase& c, std::ostream* os) {
  *os << "gates=" << c.gates << ",wires=" << c.wires << ",in=" << c.inputs
      << ",out=" << c.outputs << ",depth=" << c.depth << ",seed=" << c.seed;
}

class FlowProperty : public ::testing::TestWithParam<FlowCase> {};

TEST_P(FlowProperty, ConstraintsAndImprovementHold) {
  const FlowCase& p = GetParam();
  netlist::GeneratorSpec spec;
  spec.num_gates = p.gates;
  spec.num_wires = p.wires;
  spec.num_inputs = p.inputs;
  spec.num_outputs = p.outputs;
  spec.depth = p.depth;
  spec.seed = p.seed;
  const auto logic = netlist::generate_circuit(spec);
  const auto flow = test_support::run_flow(logic, {});

  // Structure matches the spec exactly.
  EXPECT_EQ(flow.circuit.num_gates(), p.gates);
  EXPECT_EQ(flow.circuit.num_wires(), p.wires);

  // Feasibility within the solver tolerance.
  EXPECT_LE(flow.final_metrics.delay_s, flow.bounds.delay_s * 1.03);
  EXPECT_LE(flow.final_metrics.cap_f, flow.bounds.cap_f * 1.03);
  EXPECT_LE(flow.final_metrics.noise_f, flow.bounds.noise_f * 1.03);

  // The optimizer never makes things worse than the starting point.
  EXPECT_LE(flow.final_metrics.area_um2, flow.init_metrics.area_um2);
  EXPECT_LE(flow.final_metrics.noise_f, flow.init_metrics.noise_f);

  // Sizes stay inside the box.
  for (netlist::NodeId v = flow.circuit.first_component();
       v < flow.circuit.end_component(); ++v) {
    EXPECT_GE(flow.circuit.size(v), flow.circuit.lower_bound(v) - 1e-12);
    EXPECT_LE(flow.circuit.size(v), flow.circuit.upper_bound(v) + 1e-12);
  }

  // Stage 1 never increases the effective loading.
  EXPECT_LE(flow.ordering_cost_woss, flow.ordering_cost_initial + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlowProperty,
    ::testing::Values(FlowCase{60, 140, 10, 6, 8, 1}, FlowCase{60, 140, 10, 6, 8, 2},
                      FlowCase{120, 250, 14, 9, 12, 3},
                      FlowCase{120, 280, 14, 9, 12, 4},
                      FlowCase{200, 420, 20, 12, 16, 5},
                      FlowCase{200, 380, 20, 12, 24, 6},
                      FlowCase{320, 680, 30, 16, 20, 7}));

// ---------------------------------------------------------------------------
// Similarity is a proper correlation over random simulations.
// ---------------------------------------------------------------------------

class SimilarityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimilarityProperty, BoundedSymmetricReflexive) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 40;
  spec.num_wires = 90;
  spec.num_inputs = 8;
  spec.num_outputs = 5;
  spec.seed = GetParam();
  const auto logic = netlist::generate_circuit(spec);
  const auto result =
      sim::simulate(logic, sim::random_vectors(8, 24, GetParam() * 13 + 1));
  std::vector<std::int32_t> nets;
  for (std::int32_t g = 0; g < logic.num_gates_logic(); ++g) nets.push_back(g);
  const sim::SimilarityMatrix m(result, nets);
  for (std::int32_t a = 0; a < m.size(); ++a) {
    EXPECT_DOUBLE_EQ(m.at(a, a), 1.0);
    for (std::int32_t b = 0; b < m.size(); ++b) {
      EXPECT_DOUBLE_EQ(m.at(a, b), m.at(b, a));
      EXPECT_GE(m.at(a, b), -1.0 - 1e-12);
      EXPECT_LE(m.at(a, b), 1.0 + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityProperty, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// WOSS quality across random weight matrices.
// ---------------------------------------------------------------------------

class WossProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WossProperty, WithinTwoXOfOptimumOnSmallInstances) {
  util::Rng rng(GetParam());
  const std::int32_t n = 10;
  std::vector<double> w(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      const double v = rng.uniform(0.0, 2.0);
      w[static_cast<std::size_t>(a * n + b)] = v;
      w[static_cast<std::size_t>(b * n + a)] = v;
    }
  }
  const layout::DenseWeights view(n, std::move(w));
  const double woss = layout::ordering_cost(view, layout::woss_ordering(view));
  const double opt =
      layout::ordering_cost(view, layout::optimal_ordering_bruteforce(view));
  EXPECT_GE(woss, opt - 1e-12);
  EXPECT_LE(woss, 2.5 * opt + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WossProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

// ---------------------------------------------------------------------------
// Posynomial truncation error (Theorem 1) across u and k.
// ---------------------------------------------------------------------------

struct TruncCase {
  double u;
  int k;
};

// Printed by value: gtest's default byte dump would put the struct's padding
// bytes, which are uninitialised and differ from run to run, in the test names.
void PrintTo(const TruncCase& c, std::ostream* os) {
  *os << "u=" << c.u << ",k=" << c.k;
}

class TruncationProperty : public ::testing::TestWithParam<TruncCase> {};

TEST_P(TruncationProperty, ErrorRatioIsUToTheK) {
  const auto [u, k] = GetParam();
  layout::CouplingGeometry geom;
  geom.overlap_um = 100.0;
  geom.pitch_um = 1.0;            // xi + xj = 2u at pitch 1
  geom.fringe_per_um = 1e-15;
  const double xi = u;            // coupling_ratio = (u + u)/2 = u
  const double xj = u;
  const double exact = layout::exact_coupling_cap(geom, xi, xj);
  const double approx = layout::posynomial_coupling_cap(geom, xi, xj, k);
  EXPECT_NEAR((exact - approx) / exact, std::pow(u, k), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TruncationProperty,
    ::testing::Values(TruncCase{0.1, 2}, TruncCase{0.1, 3}, TruncCase{0.25, 2},
                      TruncCase{0.25, 3}, TruncCase{0.25, 4}, TruncCase{0.25, 5},
                      TruncCase{0.5, 2}, TruncCase{0.5, 4}, TruncCase{0.75, 3},
                      TruncCase{0.9, 2}));

// ---------------------------------------------------------------------------
// Generator structural invariants across a seed sweep.
// ---------------------------------------------------------------------------

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, StructureInvariants) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 180;
  spec.num_wires = 390;
  spec.num_inputs = 22;
  spec.num_outputs = 15;
  spec.depth = 14;
  spec.seed = GetParam();
  const auto n = netlist::generate_circuit(spec);
  EXPECT_EQ(n.num_real_gates(), spec.num_gates);
  EXPECT_EQ(netlist::count_wires(n, spec.elab), spec.num_wires);
  EXPECT_EQ(n.primary_outputs().size(), static_cast<std::size_t>(spec.num_outputs));
  // Fanins always reference earlier gates (acyclic by construction).
  for (std::int32_t g = 0; g < n.num_gates_logic(); ++g) {
    for (std::int32_t f : n.gate(g).fanin) EXPECT_LT(f, g);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
