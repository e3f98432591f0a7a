// Fanin-cone hashes (netlist/cone_hash.hpp) against netlist_hash: what each
// is invariant to, and the Merkle property that a single edit dirties
// exactly its fan-out cone — the contract eco::seed_from_index builds on.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "core/flow.hpp"
#include "eco/incremental.hpp"
#include "netlist/cone_hash.hpp"
#include "netlist/generator.hpp"
#include "netlist/hash.hpp"
#include "netlist/iscas_profiles.hpp"
#include "netlist/logic_netlist.hpp"
#include "runtime/batch.hpp"

namespace {

using namespace lrsizer;
using netlist::LogicNetlist;
using netlist::LogicOp;

// a,b,c inputs; g=AND(a,b), h=OR(b,c), i=XOR(g,h) PO, j=NAND(g,c) PO.
// Indices: a0 b1 c2 g3 h4 i5 j6.
LogicNetlist diamond() {
  LogicNetlist n;
  n.add_input("a");
  n.add_input("b");
  n.add_input("c");
  n.add_gate("g", LogicOp::kAnd, {0, 1});
  n.add_gate("h", LogicOp::kOr, {1, 2});
  n.add_gate("i", LogicOp::kXor, {3, 4});
  n.add_gate("j", LogicOp::kNand, {3, 2});
  n.mark_output(5);
  n.mark_output(6);
  n.finalize();
  return n;
}

/// Gates whose cone hash differs between two same-size netlists.
std::set<std::int32_t> changed_cones(const LogicNetlist& a, const LogicNetlist& b) {
  const auto ca = netlist::cone_hashes(a);
  const auto cb = netlist::cone_hashes(b);
  EXPECT_EQ(ca.size(), cb.size());
  std::set<std::int32_t> changed;
  for (std::size_t g = 0; g < ca.size(); ++g) {
    if (ca[g] != cb[g]) changed.insert(static_cast<std::int32_t>(g));
  }
  return changed;
}

/// `root` plus its transitive fan-out, via an explicit BFS over fanins —
/// the oracle the Merkle property is checked against.
std::set<std::int32_t> fanout_closure(const LogicNetlist& n, std::int32_t root) {
  std::vector<std::vector<std::int32_t>> fanout(
      static_cast<std::size_t>(n.num_gates_logic()));
  for (std::int32_t g = 0; g < n.num_gates_logic(); ++g) {
    for (const std::int32_t f : n.gate(g).fanin) {
      fanout[static_cast<std::size_t>(f)].push_back(g);
    }
  }
  std::set<std::int32_t> seen{root};
  std::queue<std::int32_t> work;
  work.push(root);
  while (!work.empty()) {
    const std::int32_t g = work.front();
    work.pop();
    for (const std::int32_t s : fanout[static_cast<std::size_t>(g)]) {
      if (seen.insert(s).second) work.push(s);
    }
  }
  return seen;
}

TEST(ConeHash, DeterministicAcrossRebuilds) {
  const LogicNetlist a = diamond();
  const LogicNetlist b = diamond();
  EXPECT_EQ(netlist::netlist_hash(a), netlist::netlist_hash(b));
  EXPECT_EQ(netlist::cone_hashes(a), netlist::cone_hashes(b));
}

TEST(ConeHash, IgnoresDefinitionOrderUnlikeNetlistHash) {
  const LogicNetlist a = diamond();
  // Same structure with h defined before g: h3 g4 i5 j6.
  LogicNetlist b;
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_gate("h", LogicOp::kOr, {1, 2});
  b.add_gate("g", LogicOp::kAnd, {0, 1});
  b.add_gate("i", LogicOp::kXor, {4, 3});
  b.add_gate("j", LogicOp::kNand, {4, 2});
  b.mark_output(5);
  b.mark_output(6);
  b.finalize();

  // netlist_hash keys the cache on definition order; cone hashes see only
  // the structure behind each gate.
  EXPECT_NE(netlist::netlist_hash(a), netlist::netlist_hash(b));
  auto ca = netlist::cone_hashes(a);
  auto cb = netlist::cone_hashes(b);
  std::sort(ca.begin(), ca.end());
  std::sort(cb.begin(), cb.end());
  EXPECT_EQ(ca, cb);
}

TEST(ConeHash, RenameDirtiesExactlyTheFanoutCone) {
  const LogicNetlist a = diamond();
  LogicNetlist b;
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_gate("g2", LogicOp::kAnd, {0, 1});  // renamed
  b.add_gate("h", LogicOp::kOr, {1, 2});
  b.add_gate("i", LogicOp::kXor, {3, 4});
  b.add_gate("j", LogicOp::kNand, {3, 2});
  b.mark_output(5);
  b.mark_output(6);
  b.finalize();

  EXPECT_NE(netlist::netlist_hash(a), netlist::netlist_hash(b));
  EXPECT_EQ(changed_cones(a, b), (std::set<std::int32_t>{3, 5, 6}));
}

TEST(ConeHash, OutputMarkFlipDirtiesTheGateAndItsFanout) {
  const LogicNetlist a = diamond();
  LogicNetlist b = diamond();
  // Rebuild with g additionally marked as a primary output.
  LogicNetlist c;
  c.add_input("a");
  c.add_input("b");
  c.add_input("c");
  c.add_gate("g", LogicOp::kAnd, {0, 1});
  c.add_gate("h", LogicOp::kOr, {1, 2});
  c.add_gate("i", LogicOp::kXor, {3, 4});
  c.add_gate("j", LogicOp::kNand, {3, 2});
  c.mark_output(3);
  c.mark_output(5);
  c.mark_output(6);
  c.finalize();

  EXPECT_NE(netlist::netlist_hash(a), netlist::netlist_hash(c));
  EXPECT_EQ(changed_cones(a, c), (std::set<std::int32_t>{3, 5, 6}));
}

TEST(ConeHash, FaninReorderDirtiesTheFanoutCone) {
  const LogicNetlist a = diamond();
  LogicNetlist b;
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_gate("g", LogicOp::kAnd, {1, 0});  // swapped fanin order
  b.add_gate("h", LogicOp::kOr, {1, 2});
  b.add_gate("i", LogicOp::kXor, {3, 4});
  b.add_gate("j", LogicOp::kNand, {3, 2});
  b.mark_output(5);
  b.mark_output(6);
  b.finalize();

  EXPECT_NE(netlist::netlist_hash(a), netlist::netlist_hash(b));
  EXPECT_EQ(changed_cones(a, b), (std::set<std::int32_t>{3, 5, 6}));
}

TEST(ConeHash, OutputConeHashesFollowPrimaryOutputOrder) {
  const LogicNetlist n = diamond();
  const auto cones = netlist::cone_hashes(n);
  const auto outputs = netlist::output_cone_hashes(n);
  ASSERT_EQ(outputs.size(), n.primary_outputs().size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i],
              cones[static_cast<std::size_t>(n.primary_outputs()[i])]);
  }
}

// The Merkle property on seeded generator circuits: flip one gate's op and
// the changed cones are exactly the gate plus its transitive fan-out, and a
// job seeded from the base (runtime::run_job, the serve loop's path) splits
// the revision into the same dirty/clean partition.
TEST(ConeHash, SingleEditDirtiesExactlyTheFanoutConeOnGeneratedCircuits) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const LogicNetlist base =
        netlist::generate_circuit(netlist::spec_for_profile("c432", seed));

    // First AND gate in definition order — deterministic, mid-circuit.
    std::int32_t edit = -1;
    for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
      if (base.gate(g).op == LogicOp::kAnd) {
        edit = g;
        break;
      }
    }
    ASSERT_GE(edit, 0) << "seed " << seed;

    LogicNetlist revised;
    for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
      const netlist::LogicGate& gate = base.gate(g);
      if (gate.op == LogicOp::kInput) {
        revised.add_input(gate.name);
      } else {
        revised.add_gate(gate.name, g == edit ? LogicOp::kOr : gate.op,
                         gate.fanin);
      }
      if (base.is_primary_output(g)) revised.mark_output(g);
    }
    revised.finalize();

    const std::set<std::int32_t> expected = fanout_closure(base, edit);
    EXPECT_EQ(changed_cones(base, revised), expected) << "seed " << seed;

    // The ECO seed's cone match sees the same partition: the dirty gates are
    // the expected set's size, every other gate is clean (and seeded).
    core::FlowOptions options;
    options.num_vectors = 32;
    api::SizingSession session(base, options);
    ASSERT_TRUE(session.run_all().ok()) << "seed " << seed;
    runtime::BatchJob job;
    job.name = "revision";
    job.netlist = revised;
    job.options = options;
    job.eco_index = std::make_shared<const runtime::EcoIndex>(
        eco::build_eco_index(base, session.take_result()));
    job.eco_base = "base";
    const runtime::JobOutcome outcome = runtime::run_job(std::move(job));
    ASSERT_TRUE(outcome.ok) << "seed " << seed << ": " << outcome.error;
    EXPECT_EQ(outcome.eco_base, "base") << "seed " << seed;
    EXPECT_EQ(outcome.eco_dirty_gates, static_cast<std::int32_t>(expected.size()))
        << "seed " << seed;
    EXPECT_GT(outcome.eco_reused_nodes, 0) << "seed " << seed;
  }
}

}  // namespace
