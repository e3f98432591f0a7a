#include "eco/incremental.hpp"

#include <unordered_map>

#include "netlist/cone_hash.hpp"
#include "util/assert.hpp"

namespace lrsizer::eco {

runtime::EcoIndex build_eco_index(const netlist::LogicNetlist& netlist,
                                  const core::FlowResult& result) {
  LRSIZER_ASSERT_MSG(netlist.finalized(), "build_eco_index needs a finalized netlist");
  const netlist::Circuit& circuit = result.circuit;
  LRSIZER_ASSERT_MSG(
      result.net_of_node.size() == static_cast<std::size_t>(circuit.num_nodes()),
      "FlowResult does not carry the netlist's net_of_node map");

  runtime::EcoIndex index;
  const std::vector<std::uint64_t> cones = netlist::cone_hashes(netlist);
  index.nets.resize(cones.size());
  for (std::size_t g = 0; g < cones.size(); ++g) index.nets[g].cone = cones[g];
  for (const std::int32_t po : netlist.primary_outputs()) {
    index.output_cones.push_back(cones[static_cast<std::size_t>(po)]);
  }
  // Group the final sizes by net, ascending NodeId within each net (the
  // gate/driver first, then its routing-tree wires — elaboration order).
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    const std::int32_t net = result.net_of_node[static_cast<std::size_t>(v)];
    if (net < 0) continue;
    index.nets[static_cast<std::size_t>(net)].sizes.push_back(circuit.size(v));
  }
  index.multipliers = result.ogws.warm;
  index.num_nodes = circuit.num_nodes();
  index.num_edges = circuit.num_edges();
  return index;
}

EcoSeed seed_from_index(const netlist::LogicNetlist& revised,
                        const netlist::ElabResult& elab,
                        const runtime::EcoIndex& index) {
  LRSIZER_ASSERT_MSG(revised.finalized(), "seed_from_index needs a finalized netlist");
  EcoSeed seed;
  if (index.empty()) return seed;

  std::unordered_map<std::uint64_t, std::int32_t> base_of_cone;
  base_of_cone.reserve(index.nets.size());
  for (std::size_t b = 0; b < index.nets.size(); ++b) {
    base_of_cone.emplace(index.nets[b].cone, static_cast<std::int32_t>(b));
  }

  // Which circuit nodes carry each revised net.
  const auto n = static_cast<std::size_t>(revised.num_gates_logic());
  std::vector<std::vector<netlist::NodeId>> nodes_of_net(n);
  for (netlist::NodeId v = elab.circuit.first_component();
       v < elab.circuit.end_component(); ++v) {
    const std::int32_t net = elab.net_of_node[static_cast<std::size_t>(v)];
    if (net >= 0) nodes_of_net[static_cast<std::size_t>(net)].push_back(v);
  }

  const std::vector<std::uint64_t> cones = netlist::cone_hashes(revised);
  for (std::size_t g = 0; g < n; ++g) {
    const auto it = base_of_cone.find(cones[g]);
    if (it == base_of_cone.end()) {
      ++seed.dirty_gates;
      continue;
    }
    const runtime::EcoIndex::Net& base = index.nets[static_cast<std::size_t>(it->second)];
    const std::vector<netlist::NodeId>& nodes = nodes_of_net[g];
    // A clean cone guarantees an identical fanin side, not an identical
    // fanout: an edit elsewhere can change this net's sink count and with it
    // the routing-tree shape. Seed only nets that kept their node count.
    if (nodes.size() != base.sizes.size()) continue;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      seed.warm.sizes.emplace_back(nodes[i], base.sizes[i]);
    }
    seed.reused_nodes += static_cast<std::int64_t>(nodes.size());
  }

  // The multiplier state is tied to the circuit's node/edge indexing, so it
  // transfers only when the revision kept the exact shape (op-only edits —
  // the elaborated structure does not depend on gate ops by default).
  if (index.multipliers.seeds_multipliers() &&
      index.num_nodes == elab.circuit.num_nodes() &&
      index.num_edges == elab.circuit.num_edges()) {
    seed.warm.multipliers = index.multipliers;
  }
  return seed;
}

}  // namespace lrsizer::eco
