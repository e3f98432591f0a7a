#include "netlist/logic_netlist.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace lrsizer::netlist {

bool logic_op_is_multi_input(LogicOp op) {
  switch (op) {
    case LogicOp::kAnd:
    case LogicOp::kNand:
    case LogicOp::kOr:
    case LogicOp::kNor:
    case LogicOp::kXor:
    case LogicOp::kXnor:
      return true;
    case LogicOp::kInput:
    case LogicOp::kBuf:
    case LogicOp::kNot:
      return false;
  }
  return false;
}

int eval_logic_op(LogicOp op, const std::vector<int>& inputs) {
  LRSIZER_ASSERT(!inputs.empty());
  switch (op) {
    case LogicOp::kInput:
      LRSIZER_ASSERT_MSG(false, "primary inputs are not evaluable");
      return 0;
    case LogicOp::kBuf:
      return inputs[0];
    case LogicOp::kNot:
      return 1 - inputs[0];
    case LogicOp::kAnd:
    case LogicOp::kNand: {
      int v = 1;
      for (int bit : inputs) v &= bit;
      return op == LogicOp::kAnd ? v : 1 - v;
    }
    case LogicOp::kOr:
    case LogicOp::kNor: {
      int v = 0;
      for (int bit : inputs) v |= bit;
      return op == LogicOp::kOr ? v : 1 - v;
    }
    case LogicOp::kXor:
    case LogicOp::kXnor: {
      int v = 0;
      for (int bit : inputs) v ^= bit;
      return op == LogicOp::kXor ? v : 1 - v;
    }
  }
  return 0;
}

const char* logic_op_name(LogicOp op) {
  switch (op) {
    case LogicOp::kInput: return "INPUT";
    case LogicOp::kBuf: return "BUFF";
    case LogicOp::kNot: return "NOT";
    case LogicOp::kAnd: return "AND";
    case LogicOp::kNand: return "NAND";
    case LogicOp::kOr: return "OR";
    case LogicOp::kNor: return "NOR";
    case LogicOp::kXor: return "XOR";
    case LogicOp::kXnor: return "XNOR";
  }
  return "?";
}

std::int32_t LogicNetlist::add_input(std::string name) {
  LRSIZER_ASSERT(!finalized_);
  const auto g = static_cast<std::int32_t>(gates_.size());
  gates_.push_back(LogicGate{std::move(name), LogicOp::kInput, {}});
  primary_inputs_.push_back(g);
  return g;
}

std::int32_t LogicNetlist::add_gate(std::string name, LogicOp op,
                                    std::vector<std::int32_t> fanin) {
  LRSIZER_ASSERT(!finalized_);
  LRSIZER_ASSERT_MSG(op != LogicOp::kInput, "use add_input for primary inputs");
  LRSIZER_ASSERT_MSG(!fanin.empty(), "gate with no fanin");
  if (!logic_op_is_multi_input(op)) {
    LRSIZER_ASSERT_MSG(fanin.size() == 1, "BUF/NOT take exactly one input");
  } else {
    LRSIZER_ASSERT_MSG(fanin.size() >= 2, "multi-input op needs >= 2 inputs");
  }
  const auto g = static_cast<std::int32_t>(gates_.size());
  for (std::int32_t f : fanin) {
    LRSIZER_ASSERT_MSG(f >= 0 && f < g, "fanin must reference an earlier gate");
  }
  gates_.push_back(LogicGate{std::move(name), op, std::move(fanin)});
  return g;
}

void LogicNetlist::mark_output(std::int32_t g) {
  LRSIZER_ASSERT(!finalized_);
  LRSIZER_ASSERT(g >= 0 && g < num_gates_logic());
  primary_outputs_.push_back(g);
}

void LogicNetlist::finalize() {
  LRSIZER_ASSERT(!finalized_);
  LRSIZER_ASSERT_MSG(!primary_inputs_.empty(), "netlist needs primary inputs");
  LRSIZER_ASSERT_MSG(!primary_outputs_.empty(), "netlist needs primary outputs");

  const auto n = static_cast<std::size_t>(num_gates_logic());
  fanout_count_.assign(n, 0);
  is_primary_output_.assign(n, false);
  for (const auto& g : gates_) {
    for (std::int32_t f : g.fanin) ++fanout_count_[static_cast<std::size_t>(f)];
  }
  for (std::int32_t po : primary_outputs_) {
    is_primary_output_[static_cast<std::size_t>(po)] = true;
  }
  for (std::size_t g = 0; g < n; ++g) {
    LRSIZER_ASSERT_MSG(fanout_count_[g] > 0 || is_primary_output_[g],
                       "gate output is unused (not a PO, no fanout)");
  }

  // Fanins always reference earlier indices, so definition order is already
  // topological; levels follow by one forward pass.
  topo_order_.resize(n);
  level_.assign(n, 0);
  depth_ = 0;
  for (std::size_t g = 0; g < n; ++g) {
    topo_order_[g] = static_cast<std::int32_t>(g);
    std::int32_t lvl = 0;
    for (std::int32_t f : gates_[g].fanin) {
      lvl = std::max(lvl, level_[static_cast<std::size_t>(f)] + 1);
    }
    level_[g] = lvl;
    depth_ = std::max(depth_, lvl);
  }
  finalized_ = true;
}

}  // namespace lrsizer::netlist
