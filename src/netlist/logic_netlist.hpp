// Gate-level logical view of a circuit (before physical elaboration).
//
// This is what the ISCAS85 `.bench` parser and the synthetic generator
// produce, what the logic simulator executes, and what the
// elaborator turns into a physical Circuit (drivers + gates + wire
// segments). Nets are identified with the gate/input that drives them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lrsizer::netlist {

enum class LogicOp : std::uint8_t {
  kInput,  ///< primary input (drives a net, has no fanin)
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
};

/// True if the op is implemented for arbitrary fanin >= 2 (AND/OR/XOR family).
bool logic_op_is_multi_input(LogicOp op);

/// Evaluate `op` over `inputs` (each 0/1). kInput is not evaluable. The
/// per-bit truth the word-parallel simulator's row ops must reproduce (its
/// test oracle evaluates gates with it).
int eval_logic_op(LogicOp op, const std::vector<int>& inputs);

const char* logic_op_name(LogicOp op);

/// One driver of a net: a primary input or a gate.
struct LogicGate {
  std::string name;              ///< net/gate name (unique)
  LogicOp op = LogicOp::kInput;
  std::vector<std::int32_t> fanin;  ///< indices into LogicNetlist::gates
};

class LogicNetlist {
 public:
  /// Gates in definition order; primary inputs are gates with op kInput.
  const std::vector<LogicGate>& gates() const { return gates_; }
  const std::vector<std::int32_t>& primary_inputs() const { return primary_inputs_; }
  const std::vector<std::int32_t>& primary_outputs() const { return primary_outputs_; }

  std::int32_t num_gates_logic() const { return static_cast<std::int32_t>(gates_.size()); }
  /// Count of non-input gates (what the paper calls #G before elaboration).
  std::int32_t num_real_gates() const {
    return num_gates_logic() - static_cast<std::int32_t>(primary_inputs_.size());
  }

  const LogicGate& gate(std::int32_t g) const {
    return gates_[static_cast<std::size_t>(g)];
  }

  /// Number of fanout pins of gate g's output net (primary-output pins are
  /// accounted separately by callers that need them).
  std::int32_t fanout_count(std::int32_t g) const {
    return fanout_count_[static_cast<std::size_t>(g)];
  }

  bool is_primary_output(std::int32_t g) const {
    return is_primary_output_[static_cast<std::size_t>(g)];
  }

  // ---- construction -------------------------------------------------------

  std::int32_t add_input(std::string name);
  std::int32_t add_gate(std::string name, LogicOp op, std::vector<std::int32_t> fanin);
  void mark_output(std::int32_t g);

  /// Validates the netlist: acyclic (guaranteed if fanins reference earlier
  /// gates), fanin arity matches ops, every gate output used (fans out or is
  /// a primary output). Call after construction.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Topological evaluation order (inputs first). Valid after finalize().
  const std::vector<std::int32_t>& topo_order() const { return topo_order_; }

  /// Logic depth (levels) of the netlist; inputs are level 0.
  std::int32_t depth() const { return depth_; }
  std::int32_t level(std::int32_t g) const { return level_[static_cast<std::size_t>(g)]; }

 private:
  std::vector<LogicGate> gates_;
  std::vector<std::int32_t> primary_inputs_;
  std::vector<std::int32_t> primary_outputs_;
  std::vector<std::int32_t> fanout_count_;
  std::vector<bool> is_primary_output_;
  std::vector<std::int32_t> topo_order_;
  std::vector<std::int32_t> level_;
  std::int32_t depth_ = 0;
  bool finalized_ = false;
};

}  // namespace lrsizer::netlist
