#include "sim/simulator.hpp"

#include <algorithm>
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

  // CSR views of the netlist, built once per call: each gate's op, its
  // fanin nets, and each net's consumer gates in ascending gate order. Gate
  // evaluation then reads value[] through these flat arrays in place.
  const auto nn = static_cast<std::size_t>(n);
  std::vector<netlist::LogicOp> op(nn);
  std::vector<std::int32_t> fanin_offset(nn + 1, 0);
  std::vector<std::int32_t> fanout_offset(nn + 1, 0);
  for (std::int32_t g = 0; g < n; ++g) {
    const auto& gate = netlist.gate(g);
    const auto gi = static_cast<std::size_t>(g);
    op[gi] = gate.op;
    fanin_offset[gi + 1] = fanin_offset[gi] + static_cast<std::int32_t>(gate.fanin.size());
    for (std::int32_t f : gate.fanin) ++fanout_offset[static_cast<std::size_t>(f) + 1];
  }
  for (std::size_t i = 1; i <= nn; ++i) fanout_offset[i] += fanout_offset[i - 1];
  std::vector<std::int32_t> fanin(static_cast<std::size_t>(fanin_offset[nn]));
  std::vector<std::int32_t> fanout(fanin.size());
  std::vector<std::int32_t> fanout_cursor(fanout_offset.begin(), fanout_offset.end() - 1);
  for (std::int32_t g = 0; g < n; ++g) {
    const auto& in = netlist.gate(g).fanin;
    std::copy(in.begin(), in.end(), fanin.begin() + fanin_offset[static_cast<std::size_t>(g)]);
    for (std::int32_t f : in) {
      fanout[static_cast<std::size_t>(fanout_cursor[static_cast<std::size_t>(f)]++)] = g;
    }
  }

  // Settle to vector 0 with zero delay (definition order is topological).
  std::vector<int> value(nn, 0);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    value[static_cast<std::size_t>(pis[i])] = vectors[0][i];
  }
  auto eval_gate = [&](std::int32_t g) {
    const auto gi = static_cast<std::size_t>(g);
    const std::int32_t* in = fanin.data() + fanin_offset[gi];
    return netlist::eval_logic_op(
        op[gi], static_cast<std::size_t>(fanin_offset[gi + 1] - fanin_offset[gi]),
        [&](std::size_t k) { return value[static_cast<std::size_t>(in[k])]; });
  };
  for (std::int32_t g : netlist.topo_order()) {
    if (op[static_cast<std::size_t>(g)] != netlist::LogicOp::kInput) {
      value[static_cast<std::size_t>(g)] = eval_gate(g);
    }
  }

  SimResult result;
  result.waveforms.reserve(nn);
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
  std::vector<SimTime> dirty_mark(nn, -1);
  std::vector<std::int32_t> dirty;

  // Within one tick a net changes at most once (an input once per vector, a
  // gate once per evaluation), so the order of a tick's events is immaterial.
  auto apply = [&](std::int32_t gate, int v, SimTime t) {
    const auto g = static_cast<std::size_t>(gate);
    ++result.total_events;
    if (value[g] == v) return;
    value[g] = v;
    result.waveforms[g].add_toggle(t);
    for (std::int32_t k = fanout_offset[g]; k < fanout_offset[g + 1]; ++k) {
      const std::int32_t consumer = fanout[static_cast<std::size_t>(k)];
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
