// The physical circuit graph of paper §2.1 (Figure 2): a DAG over
// source / drivers / gates / wires / sink with per-component electrical
// attributes and mutable sizes. This is the single data structure every
// downstream pass (loads, upstream resistance, arrivals, LRS, OGWS)
// operates on.
//
// Index contract (established by CircuitBuilder::finalize):
//   node 0                  — source ~s
//   nodes 1 .. s            — input drivers (set R)
//   nodes s+1 .. n+s        — sized components: gates and wires (G ∪ W)
//   node n+s+1              — sink ~t
// and for every edge (i, j): i < j  (topological indexing).
//
// Storage is struct-of-arrays with CSR adjacency: the paper's linear-memory
// claim (Figure 10a) depends on it, and the optimization passes are plain
// forward/backward sweeps over these arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/types.hpp"

namespace lrsizer::netlist {

class CircuitBuilder;

class Circuit {
 public:
  // ---- shape ------------------------------------------------------------

  /// Total node count = n + s + 2 (components + drivers + source + sink).
  NodeId num_nodes() const { return static_cast<NodeId>(kind_.size()); }
  /// Number of input drivers s.
  NodeId num_drivers() const { return num_drivers_; }
  /// Number of sized components n (gates + wires).
  NodeId num_components() const { return num_nodes() - num_drivers_ - 2; }
  NodeId num_gates() const { return num_gates_; }
  NodeId num_wires() const { return num_components() - num_gates_; }
  NodeId source() const { return 0; }
  NodeId sink() const { return num_nodes() - 1; }
  /// First sized component (= s + 1).
  NodeId first_component() const { return num_drivers_ + 1; }
  /// One past the last sized component (= n + s + 1).
  NodeId end_component() const { return num_nodes() - 1; }

  EdgeId num_edges() const { return static_cast<EdgeId>(edge_from_.size()); }

  // ---- per-node attributes ------------------------------------------------

  NodeKind kind(NodeId v) const { return kind_[static_cast<std::size_t>(v)]; }
  bool is_gate(NodeId v) const { return kind(v) == NodeKind::kGate; }
  bool is_wire(NodeId v) const { return kind(v) == NodeKind::kWire; }
  bool is_driver(NodeId v) const { return kind(v) == NodeKind::kDriver; }
  bool is_sized(NodeId v) const { return is_gate(v) || is_wire(v); }

  /// Unit-size resistance r̂_v (drivers: the fixed R_D; source/sink: 0).
  double unit_res(NodeId v) const { return unit_res_[static_cast<std::size_t>(v)]; }
  /// Unit-size capacitance ĉ_v (drivers/source/sink: 0).
  double unit_cap(NodeId v) const { return unit_cap_[static_cast<std::size_t>(v)]; }
  /// Fringing capacitance f_v (0 for gates per the paper).
  double fringe_cap(NodeId v) const { return fringe_cap_[static_cast<std::size_t>(v)]; }
  /// Area weight α_v (area of the component is α_v · x_v).
  double area_weight(NodeId v) const { return area_weight_[static_cast<std::size_t>(v)]; }
  /// Fixed extra load at the node's output (e.g. C_L on primary outputs).
  double pin_load(NodeId v) const { return pin_load_[static_cast<std::size_t>(v)]; }
  /// Size bounds L_v ≤ x_v ≤ U_v.
  double lower_bound(NodeId v) const { return lower_[static_cast<std::size_t>(v)]; }
  double upper_bound(NodeId v) const { return upper_[static_cast<std::size_t>(v)]; }
  /// Wire length in µm (0 for non-wires); geometry input to coupling.
  double wire_length(NodeId v) const { return length_[static_cast<std::size_t>(v)]; }

  /// Effective resistance at size x: r̂/x for sized components, R_D for
  /// drivers (whose "size" is ignored).
  double resistance(NodeId v, double x) const {
    if (is_driver(v)) return unit_res(v);
    return unit_res(v) / x;
  }

  /// Ground (non-coupling) capacitance at size x: ĉ·x + f.
  double ground_cap(NodeId v, double x) const { return unit_cap(v) * x + fringe_cap(v); }

  // ---- sizes ---------------------------------------------------------------

  /// Current size vector, indexed by NodeId (drivers/source/sink carry 0).
  const std::vector<double>& sizes() const { return size_; }
  std::vector<double>& mutable_sizes() { return size_; }
  double size(NodeId v) const { return size_[static_cast<std::size_t>(v)]; }
  void set_size(NodeId v, double x) { size_[static_cast<std::size_t>(v)] = x; }
  /// Set every sized component to `x` clamped into its bounds.
  void set_uniform_size(double x);

  // ---- adjacency -------------------------------------------------------------

  // Defined here, not in circuit.cpp: every per-node loop of the sizing
  // path (LRS, loads, upstream, arrivals, the dual step, flow projection)
  // calls these, and an out-of-line call per node costs more than the span.

  /// Fanout nodes of v, i.e. output(v) in the paper.
  std::span<const NodeId> outputs(NodeId v) const {
    return csr_span(out_nodes_, out_offset_, v);
  }
  /// Fanin nodes of v, i.e. input(v) in the paper.
  std::span<const NodeId> inputs(NodeId v) const {
    return csr_span(in_nodes_, in_offset_, v);
  }
  /// Edge ids of v's out-edges, parallel to outputs(v).
  std::span<const EdgeId> output_edges(NodeId v) const {
    return csr_span(out_edges_, out_offset_, v);
  }
  /// Edge ids of v's in-edges, parallel to inputs(v).
  std::span<const EdgeId> input_edges(NodeId v) const {
    return csr_span(in_edges_, in_offset_, v);
  }

  NodeId edge_from(EdgeId e) const { return edge_from_[static_cast<std::size_t>(e)]; }
  NodeId edge_to(EdgeId e) const { return edge_to_[static_cast<std::size_t>(e)]; }

  // ---- misc ---------------------------------------------------------------

  const TechParams& tech() const { return tech_; }

  /// Bytes held by this circuit's per-node and per-edge arrays.
  std::size_t memory_bytes() const;

  /// Internal consistency check (index contract, CSR symmetry, acyclicity by
  /// construction). Aborts on violation; used by tests and the builder.
  void validate() const;

 private:
  friend class CircuitBuilder;
  Circuit() = default;

  /// Row v of a CSR array: values[offset[v] .. offset[v+1]).
  template <class T>
  static std::span<const T> csr_span(const std::vector<T>& values,
                                     const std::vector<std::int32_t>& offset, NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    return {values.data() + offset[i], static_cast<std::size_t>(offset[i + 1] - offset[i])};
  }

  TechParams tech_;
  NodeId num_drivers_ = 0;
  NodeId num_gates_ = 0;

  // Node attribute arrays, all sized num_nodes().
  std::vector<NodeKind> kind_;
  std::vector<double> unit_res_;
  std::vector<double> unit_cap_;
  std::vector<double> fringe_cap_;
  std::vector<double> area_weight_;
  std::vector<double> pin_load_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> length_;
  std::vector<double> size_;

  // Edge arrays, sized num_edges().
  std::vector<NodeId> edge_from_;
  std::vector<NodeId> edge_to_;

  // CSR adjacency: out_offset_ has num_nodes()+1 entries.
  std::vector<std::int32_t> out_offset_;
  std::vector<NodeId> out_nodes_;
  std::vector<EdgeId> out_edges_;
  std::vector<std::int32_t> in_offset_;
  std::vector<NodeId> in_nodes_;
  std::vector<EdgeId> in_edges_;
};

}  // namespace lrsizer::netlist
