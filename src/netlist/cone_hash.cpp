#include "netlist/cone_hash.hpp"

#include "netlist/hash.hpp"
#include "netlist/logic_netlist.hpp"
#include "util/assert.hpp"

namespace lrsizer::netlist {

namespace {

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = mix_byte(h, static_cast<unsigned char>(v & 0xff));
    v >>= 8;
  }
  return h;
}

}  // namespace

std::vector<std::uint64_t> cone_hashes(const LogicNetlist& netlist) {
  LRSIZER_ASSERT_MSG(netlist.finalized(),
                     "cone_hashes needs a finalized netlist (topo order)");
  const auto n = static_cast<std::size_t>(netlist.num_gates_logic());
  std::vector<std::uint64_t> cones(n, 0);
  // Definition order is topological (fanins reference earlier gates), but
  // walking topo_order() keeps this correct even if that invariant is ever
  // relaxed.
  for (const std::int32_t g : netlist.topo_order()) {
    const LogicGate& gate = netlist.gate(g);
    std::uint64_t h = kFnvOffset;
    h = mix_byte(h, static_cast<unsigned char>(gate.op));
    h = mix_string(h, gate.name);
    h = mix_byte(h, netlist.is_primary_output(g) ? 1 : 0);
    h = mix_i32(h, static_cast<std::int32_t>(gate.fanin.size()));
    for (const std::int32_t f : gate.fanin) {
      h = mix_u64(h, cones[static_cast<std::size_t>(f)]);
    }
    cones[static_cast<std::size_t>(g)] = h;
  }
  return cones;
}

std::vector<std::uint64_t> output_cone_hashes(const LogicNetlist& netlist) {
  const std::vector<std::uint64_t> cones = cone_hashes(netlist);
  std::vector<std::uint64_t> out;
  out.reserve(netlist.primary_outputs().size());
  for (const std::int32_t po : netlist.primary_outputs()) {
    out.push_back(cones[static_cast<std::size_t>(po)]);
  }
  return out;
}

}  // namespace lrsizer::netlist
