// The ECO subsystem end to end (docs/ECO.md): incremental re-sizing against
// a cached base converges in a fraction of the cold iteration count at the
// same KKT tolerance, index/seed round-trips reuse everything on an
// unedited netlist, and the repeater-insertion pre-pass produces netlists
// that re-parse, re-hash stably, and size feasibly.
#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "core/flow.hpp"
#include "eco/buffering.hpp"
#include "eco/incremental.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/cone_hash.hpp"
#include "netlist/generator.hpp"
#include "netlist/hash.hpp"
#include "netlist/iscas_profiles.hpp"
#include "netlist/logic_netlist.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;
using netlist::LogicNetlist;
using netlist::LogicOp;

/// The paper benches' flow options (bench_common.hpp) — the profile the
/// committed bench/BENCH_eco.json was measured under.
core::FlowOptions eco_flow_options() {
  core::FlowOptions options;
  options.num_vectors = 32;
  options.bound_factors.delay = 1.0;
  options.bound_factors.power = 0.15;
  options.bound_factors.noise = 0.10;
  options.initial_size = 1.0;
  return options;
}

LogicOp flipped(LogicOp op) {
  switch (op) {
    case LogicOp::kAnd: return LogicOp::kOr;
    case LogicOp::kOr: return LogicOp::kAnd;
    case LogicOp::kNand: return LogicOp::kNor;
    case LogicOp::kNor: return LogicOp::kNand;
    case LogicOp::kXor: return LogicOp::kXnor;
    case LogicOp::kXnor: return LogicOp::kXor;
    default: return op;
  }
}

/// Rebuild `base` with a seeded `fraction` of its flippable gates' ops
/// flipped — same edit model as bench/bench_eco.cpp (arity and elaborated
/// structure unchanged, so the multiplier state transfers).
LogicNetlist flip_ops(const LogicNetlist& base, double fraction,
                      std::uint64_t seed) {
  std::vector<std::int32_t> candidates;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    if (flipped(base.gate(g).op) != base.gate(g).op) candidates.push_back(g);
  }
  util::Rng rng(seed);
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.next_below(i)]);
  }
  std::size_t num_edits = static_cast<std::size_t>(
      fraction * static_cast<double>(base.num_real_gates()) + 0.5);
  if (num_edits == 0) num_edits = 1;
  if (num_edits > candidates.size()) num_edits = candidates.size();
  const std::unordered_set<std::int32_t> edits(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(num_edits));

  LogicNetlist revised;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    const netlist::LogicGate& gate = base.gate(g);
    if (gate.op == LogicOp::kInput) {
      revised.add_input(gate.name);
    } else {
      revised.add_gate(gate.name,
                       edits.count(g) != 0 ? flipped(gate.op) : gate.op,
                       gate.fanin);
    }
    if (base.is_primary_output(g)) revised.mark_output(g);
  }
  revised.finalize();
  return revised;
}

core::FlowSummary run_cold(const LogicNetlist& netlist,
                           const core::FlowOptions& options) {
  api::SizingSession session(netlist, options);
  const api::Status status = session.run_all();
  EXPECT_TRUE(status.ok()) << status.to_string();
  return session.summary();
}

// The ISSUE acceptance contract: on a seeded >=5k-node generator circuit
// with a 1% gate edit, the ECO path converges in at most a third of the
// cold iterations (small slack for platform drift) with the max KKT
// violation inside the same feasibility tolerance.
TEST(IncrementalSizer, OnePercentEditConvergesInAThirdOfColdIterations) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 2000;
  spec.num_wires = 3200;
  spec.num_inputs = 64;
  spec.num_outputs = 32;
  spec.depth = 20;
  spec.seed = 7;
  const LogicNetlist base = netlist::generate_circuit(spec);
  const core::FlowOptions options = eco_flow_options();

  api::SizingSession base_session(base, options);
  ASSERT_TRUE(base_session.run_all().ok());
  const core::FlowResult base_result = base_session.take_result();
  ASSERT_GE(base_result.circuit.num_nodes(), 5000);

  const LogicNetlist revised = flip_ops(base, 0.01, 1100);
  const core::FlowSummary cold = run_cold(revised, options);
  ASSERT_TRUE(cold.converged);

  const eco::IncrementalSizer incremental(base, options, base_result);
  eco::IncrementalSizer::Result eco;
  ASSERT_TRUE(incremental.resize(revised, &eco).ok());

  EXPECT_GT(eco.reused_nodes, 0);
  EXPECT_GT(eco.dirty_gates, 0);
  EXPECT_TRUE(eco.summary.converged);
  // Same KKT tolerance as the cold run: the converged flag already implies
  // feasibility within ogws.feas_tol, asserted explicitly for clarity.
  EXPECT_LE(eco.summary.max_violation, options.ogws.feas_tol);
  // <= 1/3 of cold, with 2 iterations of slack (measured 1 vs 9 — see the
  // committed bench/BENCH_eco.json).
  EXPECT_LE(3 * eco.summary.iterations, cold.iterations + 2)
      << "eco " << eco.summary.iterations << " vs cold " << cold.iterations;
}

TEST(IncrementalSizer, UneditedNetlistReusesEverything) {
  const LogicNetlist base =
      netlist::generate_circuit(netlist::spec_for_profile("c432", 1));
  const core::FlowOptions options = eco_flow_options();

  api::SizingSession session(base, options);
  ASSERT_TRUE(session.run_all().ok());
  const core::FlowSummary cold = session.summary();
  const core::FlowResult result = session.take_result();

  const runtime::EcoIndex index = eco::build_eco_index(base, result);
  EXPECT_FALSE(index.empty());
  EXPECT_EQ(index.num_nodes, result.circuit.num_nodes());

  // Round trip: diffing the unedited netlist against its own snapshot finds
  // nothing dirty and recovers the full solution incl. multipliers.
  const eco::EcoSeed seed = eco::seed_from_index(base, options, index);
  EXPECT_EQ(seed.dirty_gates, 0);
  EXPECT_EQ(seed.clean_gates, base.num_gates_logic());
  EXPECT_FALSE(seed.warm.multipliers.empty());
  EXPECT_EQ(seed.reused_nodes, static_cast<std::int64_t>(seed.warm.sizes.size()));
  EXPECT_GT(seed.reused_nodes, 0);

  eco::IncrementalSizer incremental(index, options);
  eco::IncrementalSizer::Result eco;
  ASSERT_TRUE(incremental.resize(base, &eco).ok());
  EXPECT_TRUE(eco.summary.converged);
  // Restarting from the converged state re-certifies almost immediately.
  EXPECT_LE(eco.summary.iterations, 2);
  EXPECT_LT(eco.summary.iterations, cold.iterations);
}

// Acceptance: --buffer-long-wires output re-parses, re-hashes stably, and
// sizes feasibly on at least two ISCAS85 profiles.
TEST(Buffering, OutputReparsesRehashesStablyAndSizesFeasibly) {
  // The paper's 0.15·cap_init power squeeze is measured against the
  // *unbuffered* circuit; the inserted repeaters add irreducible gate cap,
  // so the feasibility check here budgets for them.
  core::FlowOptions options = eco_flow_options();
  options.bound_factors.power = 0.30;
  options.bound_factors.noise = 0.20;
  for (const char* profile : {"c432", "c880"}) {
    const LogicNetlist base =
        netlist::generate_circuit(netlist::spec_for_profile(profile, 1));

    eco::BufferingOptions buffering;
    buffering.length_threshold_um = 1200.0;  // low enough to trigger splicing
    const eco::BufferingResult result =
        eco::buffer_long_wires(base, options, buffering);
    EXPECT_GT(result.repeaters, 0) << profile;
    EXPECT_FALSE(result.nets.empty()) << profile;
    ASSERT_TRUE(result.netlist.finalized()) << profile;
    EXPECT_GT(result.netlist.num_gates_logic(), base.num_gates_logic())
        << profile;

    // Re-parses: the .bench round trip accepts the transformed netlist and
    // preserves its structure (cone hashes are definition-order-free).
    const std::string text = netlist::to_bench_string(result.netlist);
    const LogicNetlist reparsed = netlist::parse_bench_string(text);
    EXPECT_EQ(reparsed.num_gates_logic(), result.netlist.num_gates_logic());
    auto original_cones = netlist::cone_hashes(result.netlist);
    auto reparsed_cones = netlist::cone_hashes(reparsed);
    std::sort(original_cones.begin(), original_cones.end());
    std::sort(reparsed_cones.begin(), reparsed_cones.end());
    EXPECT_EQ(original_cones, reparsed_cones) << profile;

    // Re-hashes stably: writing the parsed form again is a fixed point, so
    // the cache key survives an export/import cycle.
    const std::string text2 = netlist::to_bench_string(reparsed);
    EXPECT_EQ(netlist::netlist_hash(reparsed),
              netlist::netlist_hash(netlist::parse_bench_string(text2)))
        << profile;

    // Sizes feasibly under the same flow options.
    const core::FlowSummary summary = run_cold(result.netlist, options);
    EXPECT_TRUE(summary.converged) << profile;
    EXPECT_LE(summary.max_violation, options.ogws.feas_tol) << profile;
  }
}

TEST(Buffering, ClosedFormGrowsWithLengthAndCoupling) {
  const core::FlowOptions options = eco_flow_options();
  int prev_k = -1;
  for (const double length : {500.0, 1500.0, 3000.0, 6000.0}) {
    int k = 0;
    double h = 0.0;
    eco::optimal_repeaters(length, options.tech, options.neighbors,
                           /*shielded=*/false, &k, &h);
    EXPECT_GE(k, prev_k) << length;  // k is non-decreasing in length
    EXPECT_GT(h, 0.0) << length;
    prev_k = k;
  }
  EXPECT_GT(prev_k, 0);

  // Shielded neighbors couple less, so the unshielded worst case buffers at
  // least as aggressively.
  int k_shielded = 0, k_unshielded = 0;
  double h_shielded = 0.0, h_unshielded = 0.0;
  eco::optimal_repeaters(4000.0, options.tech, options.neighbors, true,
                         &k_shielded, &h_shielded);
  eco::optimal_repeaters(4000.0, options.tech, options.neighbors, false,
                         &k_unshielded, &h_unshielded);
  EXPECT_GE(k_unshielded, k_shielded);
  EXPECT_GE(h_unshielded, h_shielded);
}

}  // namespace
