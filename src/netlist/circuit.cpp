#include "netlist/circuit.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/memtrack.hpp"

namespace lrsizer::netlist {

void Circuit::set_uniform_size(double x) {
  for (NodeId v = first_component(); v < end_component(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    size_[i] = std::clamp(x, lower_[i], upper_[i]);
  }
}

std::size_t Circuit::memory_bytes() const {
  const std::size_t node_bytes =
      util::vector_bytes(kind_) + util::vector_bytes(unit_res_) + util::vector_bytes(unit_cap_) +
      util::vector_bytes(fringe_cap_) + util::vector_bytes(area_weight_) +
      util::vector_bytes(pin_load_) + util::vector_bytes(lower_) + util::vector_bytes(upper_) +
      util::vector_bytes(length_) + util::vector_bytes(size_);
  const std::size_t edge_bytes =
      util::vector_bytes(edge_from_) + util::vector_bytes(edge_to_) +
      util::vector_bytes(out_offset_) + util::vector_bytes(out_nodes_) +
      util::vector_bytes(out_edges_) + util::vector_bytes(in_offset_) +
      util::vector_bytes(in_nodes_) + util::vector_bytes(in_edges_);
  return node_bytes + edge_bytes;
}

void Circuit::validate() const {
  const NodeId n = num_nodes();
  LRSIZER_ASSERT(n >= 3);  // source + at least one driver + sink
  LRSIZER_ASSERT(kind_[0] == NodeKind::kSource);
  LRSIZER_ASSERT(kind_[static_cast<std::size_t>(n - 1)] == NodeKind::kSink);

  // Drivers occupy 1..s; components s+1..n+s; sink last.
  for (NodeId v = 1; v <= num_drivers_; ++v) {
    LRSIZER_ASSERT(kind(v) == NodeKind::kDriver);
  }
  for (NodeId v = first_component(); v < end_component(); ++v) {
    LRSIZER_ASSERT(is_sized(v));
    LRSIZER_ASSERT(lower_bound(v) > 0.0);
    LRSIZER_ASSERT(lower_bound(v) <= upper_bound(v));
    LRSIZER_ASSERT(unit_res(v) > 0.0);
    LRSIZER_ASSERT(unit_cap(v) >= 0.0);
  }

  // Topological index contract and CSR consistency.
  for (EdgeId e = 0; e < num_edges(); ++e) {
    LRSIZER_ASSERT_MSG(edge_from(e) < edge_to(e), "edges must go low -> high index");
    LRSIZER_ASSERT(edge_from(e) >= 0 && edge_to(e) < n);
  }
  std::int64_t out_total = 0;
  std::int64_t in_total = 0;
  for (NodeId v = 0; v < n; ++v) {
    out_total += static_cast<std::int64_t>(outputs(v).size());
    in_total += static_cast<std::int64_t>(inputs(v).size());
    for (std::size_t k = 0; k < outputs(v).size(); ++k) {
      const EdgeId e = output_edges(v)[k];
      LRSIZER_ASSERT(edge_from(e) == v);
      LRSIZER_ASSERT(edge_to(e) == outputs(v)[k]);
    }
    for (std::size_t k = 0; k < inputs(v).size(); ++k) {
      const EdgeId e = input_edges(v)[k];
      LRSIZER_ASSERT(edge_to(e) == v);
      LRSIZER_ASSERT(edge_from(e) == inputs(v)[k]);
    }
  }
  LRSIZER_ASSERT(out_total == num_edges());
  LRSIZER_ASSERT(in_total == num_edges());

  // Every non-source node is driven; every non-sink node drives something.
  for (NodeId v = 1; v < n; ++v) LRSIZER_ASSERT_MSG(!inputs(v).empty(), "undriven node");
  for (NodeId v = 0; v + 1 < n; ++v) {
    LRSIZER_ASSERT_MSG(!outputs(v).empty(), "dangling node");
  }
}

}  // namespace lrsizer::netlist
