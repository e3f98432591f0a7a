#include "netlist/builder.hpp"

#include <algorithm>
#include <cstddef>

#include "util/assert.hpp"

namespace lrsizer::netlist {

CircuitBuilder::Handle CircuitBuilder::add_driver(double driver_res) {
  kind_.push_back(NodeKind::kDriver);
  unit_res_.push_back(driver_res > 0.0 ? driver_res : tech_.driver_res);
  unit_cap_.push_back(0.0);
  fringe_cap_.push_back(0.0);
  area_weight_.push_back(0.0);
  pin_load_.push_back(0.0);
  lower_.push_back(0.0);
  upper_.push_back(0.0);
  length_.push_back(0.0);
  return num_handles() - 1;
}

CircuitBuilder::Handle CircuitBuilder::add_gate(double area_weight, double complexity) {
  LRSIZER_ASSERT_MSG(complexity > 0.0, "gate complexity must be positive");
  kind_.push_back(NodeKind::kGate);
  unit_res_.push_back(tech_.gate_unit_res * complexity);
  unit_cap_.push_back(tech_.gate_unit_cap * complexity);
  fringe_cap_.push_back(0.0);  // paper: f_i = 0 for i ∈ G
  area_weight_.push_back(
      (area_weight > 0.0 ? area_weight : tech_.gate_area_per_size) * complexity);
  pin_load_.push_back(0.0);
  lower_.push_back(tech_.min_size);
  upper_.push_back(tech_.max_size);
  length_.push_back(0.0);
  return num_handles() - 1;
}

CircuitBuilder::Handle CircuitBuilder::add_wire(double length_um) {
  LRSIZER_ASSERT_MSG(length_um > 0.0, "wire length must be positive");
  kind_.push_back(NodeKind::kWire);
  unit_res_.push_back(tech_.wire_res_per_um * length_um);
  unit_cap_.push_back(tech_.wire_cap_per_um * length_um);
  fringe_cap_.push_back(tech_.wire_fringe_per_um * length_um);
  area_weight_.push_back(tech_.wire_area_per_size > 0.0 ? tech_.wire_area_per_size
                                                        : length_um);
  pin_load_.push_back(0.0);
  lower_.push_back(tech_.min_size);
  upper_.push_back(tech_.max_size);
  length_.push_back(length_um);
  return num_handles() - 1;
}

void CircuitBuilder::connect(Handle from, Handle to) {
  LRSIZER_ASSERT(from >= 0 && from < num_handles());
  LRSIZER_ASSERT(to >= 0 && to < num_handles());
  LRSIZER_ASSERT_MSG(from != to, "self loop");
  LRSIZER_ASSERT_MSG(kind_[static_cast<std::size_t>(to)] != NodeKind::kDriver,
                     "drivers have no circuit fanin");
  connections_.emplace_back(from, to);
}

void CircuitBuilder::mark_primary_output(Handle component, double load_cap) {
  LRSIZER_ASSERT(component >= 0 && component < num_handles());
  const auto i = static_cast<std::size_t>(component);
  LRSIZER_ASSERT_MSG(kind_[i] == NodeKind::kGate || kind_[i] == NodeKind::kWire,
                     "only a component can drive a primary output");
  pin_load_[i] += load_cap > 0.0 ? load_cap : tech_.output_load;
}

void CircuitBuilder::set_bounds(Handle component, double lower, double upper) {
  LRSIZER_ASSERT(component >= 0 && component < num_handles());
  LRSIZER_ASSERT(lower > 0.0 && lower <= upper);
  lower_[static_cast<std::size_t>(component)] = lower;
  upper_[static_cast<std::size_t>(component)] = upper;
}

namespace {

/// Row starts of a CSR array from per-row counts: counts[r + 1] holds row r's
/// count on entry and its one-past-end offset on return (counts[0] == 0).
void prefix_sum(std::vector<std::int32_t>& counts) {
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
}

}  // namespace

Circuit CircuitBuilder::finalize() {
  const std::int32_t h_count = num_handles();
  const auto handles = static_cast<std::size_t>(h_count);
  LRSIZER_ASSERT_MSG(h_count > 0, "empty circuit");

  // Fanout CSR over handles, each row in connection order.
  std::vector<std::int32_t> fanout_offset(handles + 1, 0);
  std::vector<std::int32_t> fanin_count(handles, 0);
  for (const auto& [from, to] : connections_) {
    ++fanout_offset[static_cast<std::size_t>(from) + 1];
    ++fanin_count[static_cast<std::size_t>(to)];
  }
  prefix_sum(fanout_offset);
  std::vector<Handle> fanout(connections_.size());
  {
    std::vector<std::int32_t> cursor(fanout_offset.begin(), fanout_offset.end() - 1);
    for (const auto& [from, to] : connections_) {
      fanout[static_cast<std::size_t>(cursor[static_cast<std::size_t>(from)]++)] = to;
    }
  }

  // Kahn topological sort over handles, FIFO, seeded with the drivers in
  // insertion order (they have no fanin); a zero-fanin non-driver is an
  // undriven component. `order` is the queue itself: every handle enters it
  // once, and its pops read it front to back.
  std::vector<Handle> order;
  order.reserve(handles);
  std::int32_t driver_count = 0;
  for (Handle h = 0; h < h_count; ++h) {
    if (kind_[static_cast<std::size_t>(h)] == NodeKind::kDriver) {
      order.push_back(h);
      ++driver_count;
      LRSIZER_ASSERT_MSG(fanin_count[static_cast<std::size_t>(h)] == 0,
                         "driver with fanin");
    } else {
      LRSIZER_ASSERT_MSG(fanin_count[static_cast<std::size_t>(h)] > 0,
                         "undriven component");
    }
  }
  LRSIZER_ASSERT_MSG(driver_count > 0, "circuit needs at least one driver");

  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto h = static_cast<std::size_t>(order[head]);
    for (std::int32_t k = fanout_offset[h]; k < fanout_offset[h + 1]; ++k) {
      const Handle succ = fanout[static_cast<std::size_t>(k)];
      if (--fanin_count[static_cast<std::size_t>(succ)] == 0) order.push_back(succ);
    }
  }
  LRSIZER_ASSERT_MSG(static_cast<std::int32_t>(order.size()) == h_count,
                     "cycle detected in circuit");

  // Handles -> NodeIds. Drivers were emitted first by construction, so the
  // contract "drivers are 1..s" holds; components follow in topological order.
  const NodeId total_nodes = h_count + 2;
  const auto nodes = static_cast<std::size_t>(total_nodes);
  const NodeId sink = total_nodes - 1;
  handle_to_node_.assign(handles, kInvalidNode);
  for (std::int32_t pos = 0; pos < h_count; ++pos) {
    handle_to_node_[static_cast<std::size_t>(order[static_cast<std::size_t>(pos)])] =
        pos + 1;
  }

  Circuit c;
  c.tech_ = tech_;
  c.num_drivers_ = driver_count;
  c.kind_.assign(nodes, NodeKind::kSource);
  c.unit_res_.assign(nodes, 0.0);
  c.unit_cap_.assign(nodes, 0.0);
  c.fringe_cap_.assign(nodes, 0.0);
  c.area_weight_.assign(nodes, 0.0);
  c.pin_load_.assign(nodes, 0.0);
  c.lower_.assign(nodes, 0.0);
  c.upper_.assign(nodes, 0.0);
  c.length_.assign(nodes, 0.0);
  c.size_.assign(nodes, 0.0);
  c.kind_[static_cast<std::size_t>(sink)] = NodeKind::kSink;

  c.num_gates_ = 0;
  for (Handle h = 0; h < h_count; ++h) {
    const auto src = static_cast<std::size_t>(h);
    const auto dst = static_cast<std::size_t>(handle_to_node_[src]);
    c.kind_[dst] = kind_[src];
    c.unit_res_[dst] = unit_res_[src];
    c.unit_cap_[dst] = unit_cap_[src];
    c.fringe_cap_[dst] = fringe_cap_[src];
    c.area_weight_[dst] = area_weight_[src];
    c.pin_load_[dst] = pin_load_[src];
    c.lower_[dst] = lower_[src];
    c.upper_[dst] = upper_[src];
    c.length_[dst] = length_[src];
    c.size_[dst] = lower_[src];  // components start at L_i; callers resize
    if (kind_[src] == NodeKind::kGate) ++c.num_gates_;
  }

  // Edges: source->drivers, user connections (duplicates kept), primary
  // outputs->sink, numbered in (from, to) order so edge ids are canonical.
  // Counting by `from` gives each node's out-edge range; its targets then
  // need only a sort within the range.
  c.out_offset_.assign(nodes + 1, 0);
  c.out_offset_[1] = driver_count;
  for (const auto& connection : connections_) {
    ++c.out_offset_[static_cast<std::size_t>(node_of(connection.first)) + 1];
  }
  std::int32_t primary_outputs = 0;
  for (Handle h = 0; h < h_count; ++h) {
    if (pin_load_[static_cast<std::size_t>(h)] > 0.0) {
      ++c.out_offset_[static_cast<std::size_t>(node_of(h)) + 1];
      ++primary_outputs;
    }
  }
  LRSIZER_ASSERT_MSG(primary_outputs > 0, "circuit needs at least one primary output");
  prefix_sum(c.out_offset_);

  const auto edges = static_cast<std::size_t>(c.out_offset_.back());
  c.edge_from_.resize(edges);
  c.edge_to_.resize(edges);
  {
    std::vector<std::int32_t> cursor(c.out_offset_.begin(), c.out_offset_.end() - 1);
    auto add = [&](NodeId from, NodeId to) {
      c.edge_to_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(from)]++)] = to;
    };
    for (NodeId v = 1; v <= driver_count; ++v) add(0, v);
    for (const auto& [from, to] : connections_) add(node_of(from), node_of(to));
    for (Handle h = 0; h < h_count; ++h) {
      if (pin_load_[static_cast<std::size_t>(h)] > 0.0) add(node_of(h), sink);
    }
  }
  for (NodeId v = 0; v < total_nodes; ++v) {
    const std::ptrdiff_t begin = c.out_offset_[static_cast<std::size_t>(v)];
    const std::ptrdiff_t end = c.out_offset_[static_cast<std::size_t>(v) + 1];
    std::sort(c.edge_to_.begin() + begin, c.edge_to_.begin() + end);
    std::fill(c.edge_from_.begin() + begin, c.edge_from_.begin() + end, v);
  }
  const auto e_count = static_cast<EdgeId>(edges);

  // CSR (out): the edge list itself, grouped by `from`.
  c.out_nodes_ = c.edge_to_;
  c.out_edges_.resize(edges);
  for (EdgeId e = 0; e < e_count; ++e) c.out_edges_[static_cast<std::size_t>(e)] = e;

  // CSR (in): counting by `to`, filled in ascending edge id.
  c.in_offset_.assign(nodes + 1, 0);
  for (NodeId to : c.edge_to_) ++c.in_offset_[static_cast<std::size_t>(to) + 1];
  prefix_sum(c.in_offset_);
  c.in_nodes_.resize(edges);
  c.in_edges_.resize(edges);
  {
    std::vector<std::int32_t> cursor(c.in_offset_.begin(), c.in_offset_.end() - 1);
    for (EdgeId e = 0; e < e_count; ++e) {
      const auto to = static_cast<std::size_t>(c.edge_to_[static_cast<std::size_t>(e)]);
      const auto slot = static_cast<std::size_t>(cursor[to]++);
      c.in_nodes_[slot] = c.edge_from_[static_cast<std::size_t>(e)];
      c.in_edges_[slot] = e;
    }
  }

  c.validate();
  return c;
}

}  // namespace lrsizer::netlist
