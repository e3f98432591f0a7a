// Per-node fanin-cone hashes — the incremental half of netlist/hash.
//
// cone_hashes() assigns every gate a Merkle-style hash over exactly the
// structural inputs netlist_hash() mixes per gate (op, name, fanin list,
// primary-output mark), except that each fanin contributes its own *cone
// hash* instead of its index. Two gates therefore hash equal iff their
// entire transitive fanin cones are structurally identical — names, ops,
// fanin order and output marks included — independent of where the gates
// sit in their netlists' definition orders.
//
// That gives an O(n) structural diff between two revisions of a netlist:
// a gate in the new netlist whose cone hash also appears in the old one is
// "clean" (its whole fanin cone is untouched), and by the Merkle property
// every gate downstream of an edit is automatically dirty — the dirty set
// is exactly the edited nodes plus their fan-out cone.
#pragma once

#include <cstdint>
#include <vector>

namespace lrsizer::netlist {

class LogicNetlist;

/// Per-gate fanin-cone hashes, indexed by gate. The netlist must be
/// finalized (hashes are computed over topo_order()). Stable across
/// processes and platforms, like netlist_hash.
std::vector<std::uint64_t> cone_hashes(const LogicNetlist& netlist);

/// Cone hashes of the primary outputs, in primary_outputs() order — the
/// netlist's output-cone fingerprint. Two netlists sharing an entry have an
/// identical transitive fanin cone behind that output; the result cache
/// uses the overlap as its ECO near-miss probe (runtime/cache.hpp).
std::vector<std::uint64_t> output_cone_hashes(const LogicNetlist& netlist);

}  // namespace lrsizer::netlist
