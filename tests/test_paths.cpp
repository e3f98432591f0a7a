// Top-K path enumeration: exactness against brute force, ordering, limits.
#include <gtest/gtest.h>

#include <functional>

#include "test_helpers.hpp"
#include "timing/loads.hpp"
#include "timing/paths.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using lrsizer::test_support::Fig1Circuit;

/// All source->sink paths with their delays, by exhaustive DFS.
std::vector<timing::TimedPath> all_paths(const netlist::Circuit& c,
                                         const timing::ArrivalAnalysis& a) {
  std::vector<timing::TimedPath> paths;
  std::vector<netlist::NodeId> current;
  std::function<void(netlist::NodeId, double)> dfs = [&](netlist::NodeId v,
                                                         double delay) {
    if (v == c.sink()) {
      paths.push_back({current, delay});
      return;
    }
    current.push_back(v);
    for (netlist::NodeId o : c.outputs(v)) {
      dfs(o, delay + (o == c.sink() ? 0.0 : a.delay[static_cast<std::size_t>(o)]));
    }
    current.pop_back();
  };
  for (netlist::NodeId d : c.outputs(c.source())) {
    dfs(d, a.delay[static_cast<std::size_t>(d)]);
  }
  std::sort(paths.begin(), paths.end(),
            [](const auto& x, const auto& y) { return x.delay_s > y.delay_s; });
  return paths;
}

timing::ArrivalAnalysis analyze(const netlist::Circuit& c,
                                const layout::CouplingSet& coupling) {
  timing::LoadAnalysis loads;
  timing::compute_loads(c, coupling, c.sizes(), loads);
  timing::ArrivalAnalysis a;
  timing::compute_arrivals(c, c.sizes(), loads, a);
  return a;
}

TEST(Paths, ChainHasExactlyOnePath) {
  auto c = ChainCircuit::make();
  c.circuit.set_uniform_size(1.0);
  const auto coupling = test_support::no_coupling(c.circuit);
  const auto a = analyze(c.circuit, coupling);
  const auto paths = timing::top_k_paths(c.circuit, a, 10);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NEAR(paths[0].delay_s, a.critical_delay, 1e-18);
  EXPECT_EQ(paths[0].nodes.size(), 4u);
}

TEST(Paths, TopPathIsTheCriticalPath) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto a = analyze(f.circuit, coupling);
  const auto paths = timing::top_k_paths(f.circuit, a, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NEAR(paths[0].delay_s, a.critical_delay, 1e-15 * a.critical_delay);
  EXPECT_EQ(paths[0].nodes, timing::critical_path(f.circuit, a));
}

TEST(Paths, MatchesBruteForceEnumeration) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto a = analyze(f.circuit, coupling);
  const auto expected = all_paths(f.circuit, a);
  const auto got = timing::top_k_paths(f.circuit, a,
                                       static_cast<int>(expected.size()) + 5);
  ASSERT_EQ(got.size(), expected.size());  // k larger than the path count
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].delay_s, expected[i].delay_s, 1e-15 * expected[0].delay_s)
        << "rank " << i;
  }
}

TEST(Paths, MatchesBruteForceUnderRandomSizes) {
  auto f = Fig1Circuit::make();
  const auto coupling = f.make_coupling();
  util::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    for (netlist::NodeId v = f.circuit.first_component();
         v < f.circuit.end_component(); ++v) {
      f.circuit.set_size(v, rng.uniform(0.1, 10.0));
    }
    const auto a = analyze(f.circuit, coupling);
    const auto expected = all_paths(f.circuit, a);
    const auto got =
        timing::top_k_paths(f.circuit, a, static_cast<int>(expected.size()));
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].delay_s, expected[i].delay_s,
                  1e-12 * expected[0].delay_s);
    }
  }
}

TEST(Paths, DescendingOrderAndDistinct) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(2.0);
  const auto coupling = f.make_coupling();
  const auto a = analyze(f.circuit, coupling);
  const auto paths = timing::top_k_paths(f.circuit, a, 4);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i - 1].delay_s, paths[i].delay_s - 1e-21);
    EXPECT_NE(paths[i - 1].nodes, paths[i].nodes);
  }
}

TEST(Paths, KSmallerThanPathCountTruncates) {
  auto f = Fig1Circuit::make();
  f.circuit.set_uniform_size(1.0);
  const auto coupling = f.make_coupling();
  const auto a = analyze(f.circuit, coupling);
  EXPECT_EQ(timing::top_k_paths(f.circuit, a, 2).size(), 2u);
}

}  // namespace
