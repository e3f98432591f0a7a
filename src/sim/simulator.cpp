#include "sim/simulator.hpp"

#include <deque>

#include "util/assert.hpp"

namespace lrsizer::sim {

namespace {

struct Event {
  SimTime time;
  std::int32_t gate;
  int value;
};

}  // namespace

SimResult simulate(const netlist::LogicNetlist& netlist,
                   const std::vector<std::vector<int>>& vectors,
                   const SimOptions& options) {
  LRSIZER_ASSERT(netlist.finalized());
  LRSIZER_ASSERT(!vectors.empty());
  LRSIZER_ASSERT(options.vector_period > 0);
  LRSIZER_ASSERT(options.gate_delay > 0);
  LRSIZER_ASSERT(options.gate_delay < options.vector_period);

  const std::int32_t n = netlist.num_gates_logic();
  const auto& pis = netlist.primary_inputs();
  for (const auto& v : vectors) {
    LRSIZER_ASSERT_MSG(v.size() == pis.size(), "vector width != #primary inputs");
  }

  // Fanout lists (consumer gate indices per net).
  std::vector<std::vector<std::int32_t>> fanouts(static_cast<std::size_t>(n));
  for (std::int32_t g = 0; g < n; ++g) {
    for (std::int32_t f : netlist.gate(g).fanin) {
      fanouts[static_cast<std::size_t>(f)].push_back(g);
    }
  }

  // Settle to vector 0 with zero delay (definition order is topological).
  std::vector<int> value(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    value[static_cast<std::size_t>(pis[i])] = vectors[0][i];
  }
  std::vector<int> scratch;
  auto eval_gate = [&](std::int32_t g) {
    const auto& gate = netlist.gate(g);
    scratch.clear();
    for (std::int32_t f : gate.fanin) {
      scratch.push_back(value[static_cast<std::size_t>(f)]);
    }
    return netlist::eval_logic_op(gate.op, scratch);
  };
  for (std::int32_t g : netlist.topo_order()) {
    if (netlist.gate(g).op != netlist::LogicOp::kInput) {
      value[static_cast<std::size_t>(g)] = eval_gate(g);
    }
  }

  SimResult result;
  result.waveforms.reserve(static_cast<std::size_t>(n));
  for (std::int32_t g = 0; g < n; ++g) {
    result.waveforms.emplace_back(value[static_cast<std::size_t>(g)]);
  }
  result.horizon = static_cast<SimTime>(vectors.size()) * options.vector_period;

  // Pending gate events, in time order. Every gate event is scheduled
  // exactly gate_delay ticks after the tick that evaluated it, and ticks are
  // processed in increasing order, so events enter this FIFO already sorted.
  // Input changes are applied at each vector boundary.
  std::deque<Event> events;
  std::vector<int> last_scheduled = value;
  std::vector<SimTime> dirty_mark(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> dirty;

  // Within one tick a net changes at most once (an input once per vector, a
  // gate once per evaluation), so the order of a tick's events is immaterial.
  auto apply = [&](std::int32_t gate, int v, SimTime t) {
    const auto g = static_cast<std::size_t>(gate);
    ++result.total_events;
    if (value[g] == v) return;
    value[g] = v;
    result.waveforms[g].add_toggle(t);
    for (std::int32_t consumer : fanouts[g]) {
      if (dirty_mark[static_cast<std::size_t>(consumer)] != t) {
        dirty_mark[static_cast<std::size_t>(consumer)] = t;
        dirty.push_back(consumer);
      }
    }
  };

  std::size_t next_vector = 1;
  while (next_vector < vectors.size() || !events.empty()) {
    // Jump to the earlier of the next vector boundary and the next event.
    const SimTime vector_time = static_cast<SimTime>(next_vector) * options.vector_period;
    const bool vector_due = next_vector < vectors.size() &&
                            (events.empty() || vector_time <= events.front().time);
    const SimTime t = vector_due ? vector_time : events.front().time;
    dirty.clear();
    if (vector_due) {
      const auto& vec = vectors[next_vector++];
      for (std::size_t i = 0; i < pis.size(); ++i) apply(pis[i], vec[i], t);
    }
    while (!events.empty() && events.front().time == t) {
      apply(events.front().gate, events.front().value, t);
      events.pop_front();
    }
    // Evaluate the affected gates once, on the tick's settled values.
    for (std::int32_t g : dirty) {
      const int nv = eval_gate(g);
      if (nv != last_scheduled[static_cast<std::size_t>(g)]) {
        last_scheduled[static_cast<std::size_t>(g)] = nv;
        events.push_back(Event{t + options.gate_delay, g, nv});
      }
    }
  }

  return result;
}

}  // namespace lrsizer::sim
