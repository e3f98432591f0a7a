// Word-parallel logic simulator: truth tables, propagation, glitching, and
// exact agreement on [0, T) with a priority-queue event loop on generated
// netlists.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>

#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "netlist/logic_netlist.hpp"
#include "sim/patterns.hpp"
#include "sim/similarity.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace lrsizer;
using netlist::LogicOp;

TEST(LogicOps, TruthTables) {
  using netlist::eval_logic_op;
  EXPECT_EQ(eval_logic_op(LogicOp::kAnd, {1, 1}), 1);
  EXPECT_EQ(eval_logic_op(LogicOp::kAnd, {1, 0}), 0);
  EXPECT_EQ(eval_logic_op(LogicOp::kNand, {1, 1}), 0);
  EXPECT_EQ(eval_logic_op(LogicOp::kNand, {0, 1}), 1);
  EXPECT_EQ(eval_logic_op(LogicOp::kOr, {0, 0}), 0);
  EXPECT_EQ(eval_logic_op(LogicOp::kOr, {0, 1}), 1);
  EXPECT_EQ(eval_logic_op(LogicOp::kNor, {0, 0}), 1);
  EXPECT_EQ(eval_logic_op(LogicOp::kXor, {1, 0}), 1);
  EXPECT_EQ(eval_logic_op(LogicOp::kXor, {1, 1}), 0);
  EXPECT_EQ(eval_logic_op(LogicOp::kXnor, {1, 1}), 1);
  EXPECT_EQ(eval_logic_op(LogicOp::kNot, {1}), 0);
  EXPECT_EQ(eval_logic_op(LogicOp::kBuf, {1}), 1);
  // Multi-input forms.
  EXPECT_EQ(eval_logic_op(LogicOp::kAnd, {1, 1, 1}), 1);
  EXPECT_EQ(eval_logic_op(LogicOp::kAnd, {1, 1, 0}), 0);
  EXPECT_EQ(eval_logic_op(LogicOp::kXor, {1, 1, 1}), 1);
  EXPECT_EQ(eval_logic_op(LogicOp::kNor, {0, 0, 0, 0}), 1);
}

TEST(Simulator, SettlesInitialVector) {
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n");
  const auto result = sim::simulate(logic, {{1, 1}});
  // y = NAND(1,1) = 0 from the start, no transitions.
  EXPECT_EQ(result.waveform(2).initial_value(), 0);
  EXPECT_TRUE(result.waveform(2).toggles().empty());
}

TEST(Simulator, PropagatesInputChangeWithGateDelay) {
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  sim::SimOptions options;
  options.vector_period = 10;
  options.gate_delay = 3;
  const auto result = sim::simulate(logic, {{0}, {1}}, options);
  // a: 0 -> 1 at t=10; y: 1 -> 0 at t=13.
  ASSERT_EQ(result.waveform(0).toggles().size(), 1u);
  EXPECT_EQ(result.waveform(0).toggles()[0], 10);
  ASSERT_EQ(result.waveform(1).toggles().size(), 1u);
  EXPECT_EQ(result.waveform(1).toggles()[0], 13);
  EXPECT_EQ(result.waveform(1).initial_value(), 1);
}

TEST(Simulator, ChainAccumulatesDelay) {
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\nm1 = NOT(a)\nm2 = NOT(m1)\ny = NOT(m2)\n");
  sim::SimOptions options;
  options.vector_period = 32;
  options.gate_delay = 2;
  const auto result = sim::simulate(logic, {{0}, {1}}, options);
  // y toggles 3 gate delays after the input edge at t=32.
  ASSERT_EQ(result.waveform(3).toggles().size(), 1u);
  EXPECT_EQ(result.waveform(3).toggles()[0], 32 + 3 * 2);
}

TEST(Simulator, NoChangeNoEvent) {
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n");
  // b flips but a=1 keeps y=1 throughout.
  const auto result = sim::simulate(logic, {{1, 0}, {1, 1}, {1, 0}});
  EXPECT_TRUE(result.waveform(2).toggles().empty());
}

TEST(Simulator, ReconvergentGlitch) {
  // y = AND(a, NOT(a)): statically 0, but a rising edge on `a` creates a
  // transient 1-glitch of one gate delay (transport delay model).
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n");
  sim::SimOptions options;
  options.vector_period = 20;
  options.gate_delay = 2;
  const auto result = sim::simulate(logic, {{0}, {1}}, options);
  const sim::Waveform y = result.waveform(2);
  // Glitch: up at 22 (AND sees a=1, n still 1), down at 24 (n falls at 22).
  ASSERT_EQ(y.toggles().size(), 2u);
  EXPECT_EQ(y.toggles()[0], 22);
  EXPECT_EQ(y.toggles()[1], 24);
}

TEST(Simulator, HorizonCoversAllVectors) {
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n");
  sim::SimOptions options;
  options.vector_period = 16;
  const auto result = sim::simulate(logic, {{0}, {1}, {0}, {1}}, options);
  EXPECT_EQ(result.horizon, 4 * 16);
}

TEST(Simulator, C17RandomVectorsProduceActivity) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto vectors = sim::random_vectors(5, 32, 11);
  const auto result = sim::simulate(logic, vectors);
  std::int64_t total_toggles = 0;
  for (std::int32_t g = 0; g < result.num_nets(); ++g) {
    total_toggles += static_cast<std::int64_t>(result.waveform(g).toggles().size());
  }
  EXPECT_GT(total_toggles, 50);  // plenty of switching over 32 vectors
  EXPECT_GT(result.total_events, total_toggles);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto vectors = sim::random_vectors(5, 16, 3);
  const auto a = sim::simulate(logic, vectors);
  const auto b = sim::simulate(logic, vectors);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.total_events, b.total_events);
}

/// What the event loop below computes: every net's waveform, drained past
/// the horizon, and its count of events before the horizon.
struct OracleResult {
  std::vector<sim::Waveform> waveforms;
  sim::SimTime horizon = 0;
  std::int64_t events_before_horizon = 0;
};

// The event loop the word-parallel simulate() replaced: every input change
// of every vector is queued up front in a binary heap ordered by time, and
// each changed net re-evaluates its consumers, whose output changes land
// gate_delay ticks later. Kept as the oracle for the differential test below.
OracleResult heap_simulate(const netlist::LogicNetlist& netlist,
                           const std::vector<std::vector<int>>& vectors,
                           const sim::SimOptions& options) {
  struct Event {
    sim::SimTime time;
    std::int32_t gate;
    int value;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const { return a.time > b.time; }
  };
  const std::int32_t n = netlist.num_gates_logic();
  const auto& pis = netlist.primary_inputs();
  std::vector<std::vector<std::int32_t>> fanouts(static_cast<std::size_t>(n));
  for (std::int32_t g = 0; g < n; ++g) {
    for (std::int32_t f : netlist.gate(g).fanin) {
      fanouts[static_cast<std::size_t>(f)].push_back(g);
    }
  }
  std::vector<int> value(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    value[static_cast<std::size_t>(pis[i])] = vectors[0][i];
  }
  std::vector<int> scratch;
  auto eval_gate = [&](std::int32_t g) {
    scratch.clear();
    for (std::int32_t f : netlist.gate(g).fanin) {
      scratch.push_back(value[static_cast<std::size_t>(f)]);
    }
    return netlist::eval_logic_op(netlist.gate(g).op, scratch);
  };
  for (std::int32_t g : netlist.topo_order()) {
    if (netlist.gate(g).op != LogicOp::kInput) value[static_cast<std::size_t>(g)] = eval_gate(g);
  }
  OracleResult result;
  for (std::int32_t g = 0; g < n; ++g) {
    result.waveforms.emplace_back(value[static_cast<std::size_t>(g)]);
  }
  result.horizon = static_cast<sim::SimTime>(vectors.size()) * options.vector_period;

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::vector<int> last_scheduled = value;
  std::vector<sim::SimTime> dirty_mark(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> dirty;
  for (std::size_t k = 1; k < vectors.size(); ++k) {
    const sim::SimTime t = static_cast<sim::SimTime>(k) * options.vector_period;
    for (std::size_t i = 0; i < pis.size(); ++i) {
      events.push(Event{t, pis[i], vectors[k][i]});
    }
  }
  while (!events.empty()) {
    const sim::SimTime t = events.top().time;
    dirty.clear();
    while (!events.empty() && events.top().time == t) {
      const Event ev = events.top();
      events.pop();
      const auto g = static_cast<std::size_t>(ev.gate);
      if (t < result.horizon) ++result.events_before_horizon;
      if (value[g] == ev.value) continue;
      value[g] = ev.value;
      result.waveforms[g].add_toggle(t);
      for (std::int32_t consumer : fanouts[g]) {
        if (dirty_mark[static_cast<std::size_t>(consumer)] != t) {
          dirty_mark[static_cast<std::size_t>(consumer)] = t;
          dirty.push_back(consumer);
        }
      }
    }
    for (std::int32_t g : dirty) {
      const int nv = eval_gate(g);
      if (nv != last_scheduled[static_cast<std::size_t>(g)]) {
        last_scheduled[static_cast<std::size_t>(g)] = nv;
        events.push(Event{t + options.gate_delay, g, nv});
      }
    }
  }
  return result;
}

TEST(Simulator, MatchesHeapOracleOnGeneratedNetlists) {
  // (period, delay) pairs, each exercising one path of the row shift or
  // mask:
  //   (64, 1)                the default;
  //   (100, 64), (129, 128)  word-aligned delays (the r == 0 copy, where a
  //                          shift by 64 would be undefined);
  //   (200, 70)              a shift that crosses a word boundary;
  //   (100, 3), (5, 2), (7, 3), (2, 1)
  //                          horizons that are not a multiple of 64 (the
  //                          tail mask).
  // Depth × delay exceeds the period at every pair on the depth-90 netlist,
  // and on every netlist at all pairs but (64, 1) and (100, 3): one
  // vector's glitches are still in flight when the next vector's inputs
  // land, and the last vector's run past T, where nothing is simulated.
  const std::pair<sim::SimTime, sim::SimTime> timings[] = {
      {64, 1}, {100, 64}, {129, 128}, {200, 70}, {100, 3}, {5, 2}, {7, 3}, {2, 1}};
  std::vector<netlist::LogicNetlist> netlists;
  netlists.push_back(netlist::parse_bench_string(netlist::kIscas85C17));
  // Multi-input XOR/XNOR, with a reconvergent inverter for glitches.
  netlists.push_back(netlist::parse_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(x)\nOUTPUT(n)\nOUTPUT(y)\n"
      "m = NOT(a)\nx = XOR(a, b, m)\nn = XNOR(a, b, c, d)\ny = XOR(x, n, m, c)\n"));
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    netlist::GeneratorSpec spec;
    spec.num_gates = 60 * static_cast<std::int32_t>(seed);
    spec.num_wires = 140 * static_cast<std::int32_t>(seed);
    spec.num_inputs = 10;
    spec.num_outputs = 6;
    spec.depth = 8 + 4 * static_cast<std::int32_t>(seed);
    spec.seed = seed;
    netlists.push_back(netlist::generate_circuit(spec));
  }
  {
    // Deeper than the default 64-tick period at delay 1, like c6288.
    netlist::GeneratorSpec spec;
    spec.num_gates = 200;
    spec.num_wires = 420;
    spec.num_inputs = 12;
    spec.num_outputs = 8;
    spec.depth = 90;
    spec.seed = 4;
    netlists.push_back(netlist::generate_circuit(spec));
  }
  netlists.push_back(netlist::generate_circuit(netlist::spec_for_profile("c432", 5)));

  std::uint64_t vector_seed = 100;
  for (const auto& logic : netlists) {
    const auto vectors = sim::random_vectors(
        static_cast<std::int32_t>(logic.primary_inputs().size()), 24, ++vector_seed);
    // The similarity check reads up to ~48 nets spread over the netlist.
    std::vector<std::int32_t> nets;
    const std::int32_t stride = std::max(1, logic.num_gates_logic() / 48);
    for (std::int32_t g = 0; g < logic.num_gates_logic(); g += stride) nets.push_back(g);
    for (const auto& [period, delay] : timings) {
      SCOPED_TRACE("gates " + std::to_string(logic.num_gates_logic()) + " depth " +
                   std::to_string(logic.depth()) + " period " + std::to_string(period) +
                   " delay " + std::to_string(delay));
      sim::SimOptions options;
      options.vector_period = period;
      options.gate_delay = delay;
      const OracleResult expected = heap_simulate(logic, vectors, options);
      const sim::SimResult actual = sim::simulate(logic, vectors, options);
      EXPECT_EQ(actual.horizon, expected.horizon);
      EXPECT_EQ(actual.total_events, expected.events_before_horizon);
      ASSERT_EQ(actual.num_nets(), logic.num_gates_logic());
      for (std::int32_t g = 0; g < actual.num_nets(); ++g) {
        const sim::Waveform& want = expected.waveforms[static_cast<std::size_t>(g)];
        std::vector<sim::SimTime> want_toggles;
        for (sim::SimTime t : want.toggles()) {
          if (t < expected.horizon) want_toggles.push_back(t);
        }
        const sim::Waveform got = actual.waveform(g);
        EXPECT_EQ(got.initial_value(), want.initial_value()) << "net " << g;
        EXPECT_EQ(got.toggles(), want_toggles) << "net " << g;
      }
      // The rows themselves, bits past T included, through what reads them.
      const sim::SimilarityMatrix matrix(actual, nets);
      for (std::size_t a = 0; a < nets.size(); ++a) {
        for (std::size_t b = a + 1; b < nets.size(); ++b) {
          EXPECT_EQ(matrix.at(static_cast<std::int32_t>(a), static_cast<std::int32_t>(b)),
                    sim::Waveform::similarity(
                        expected.waveforms[static_cast<std::size_t>(nets[a])],
                        expected.waveforms[static_cast<std::size_t>(nets[b])],
                        expected.horizon))
              << "nets " << nets[a] << ", " << nets[b];
        }
      }
    }
  }
}

TEST(Patterns, RandomVectorsShapeAndDeterminism) {
  const auto a = sim::random_vectors(8, 20, 5);
  const auto b = sim::random_vectors(8, 20, 5);
  ASSERT_EQ(a.size(), 20u);
  ASSERT_EQ(a[0].size(), 8u);
  EXPECT_EQ(a, b);
  int ones = 0;
  for (const auto& row : a) {
    for (int bit : row) {
      EXPECT_TRUE(bit == 0 || bit == 1);
      ones += bit;
    }
  }
  EXPECT_GT(ones, 40);   // roughly half of 160
  EXPECT_LT(ones, 120);
}

TEST(Patterns, BiasedVectorsToggleRarely) {
  const auto rows = sim::biased_vectors(4, 100, 0.05, 17);
  int toggles = 0;
  for (std::size_t k = 1; k < rows.size(); ++k) {
    for (std::size_t i = 0; i < rows[k].size(); ++i) {
      toggles += rows[k][i] != rows[k - 1][i] ? 1 : 0;
    }
  }
  EXPECT_LT(toggles, 60);  // 400 opportunities at 5%
}

}  // namespace
