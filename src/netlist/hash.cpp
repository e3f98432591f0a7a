#include "netlist/hash.hpp"

#include "netlist/logic_netlist.hpp"

namespace lrsizer::netlist {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) h = mix_byte(h, static_cast<unsigned char>(c));
  return h;
}

std::uint64_t netlist_hash(const LogicNetlist& netlist) {
  std::uint64_t h = kFnvOffset;
  h = mix_i32(h, netlist.num_gates_logic());
  for (const LogicGate& gate : netlist.gates()) {
    h = mix_byte(h, static_cast<unsigned char>(gate.op));
    h = mix_string(h, gate.name);
    h = mix_i32(h, static_cast<std::int32_t>(gate.fanin.size()));
    for (const std::int32_t f : gate.fanin) h = mix_i32(h, f);
  }
  h = mix_i32(h, static_cast<std::int32_t>(netlist.primary_outputs().size()));
  for (const std::int32_t o : netlist.primary_outputs()) h = mix_i32(h, o);
  return h;
}

}  // namespace lrsizer::netlist
