#include "timing/arrival.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace lrsizer::timing {

void compute_arrivals(const netlist::Circuit& circuit, const std::vector<double>& x,
                      const LoadAnalysis& loads, ArrivalAnalysis& out) {
  using netlist::NodeId;

  const auto n = static_cast<std::size_t>(circuit.num_nodes());
  LRSIZER_ASSERT(x.size() == n);
  LRSIZER_ASSERT(loads.cap_delay.size() == n);
  out.resize(n);

  const NodeId sink = circuit.sink();
  // Index order is topological, so the parents' arrivals are final.
  for (NodeId v = 1; v < sink; ++v) {
    const auto i = static_cast<std::size_t>(v);
    out.delay[i] = circuit.resistance(v, x[i]) * loads.cap_delay[i];
    double max_in = 0.0;
    for (NodeId p : circuit.inputs(v)) {
      max_in = std::max(max_in, out.arrival[static_cast<std::size_t>(p)]);
    }
    out.arrival[i] = max_in + out.delay[i];
  }

  out.critical_delay = 0.0;
  for (NodeId p : circuit.inputs(sink)) {
    out.critical_delay =
        std::max(out.critical_delay, out.arrival[static_cast<std::size_t>(p)]);
  }
  out.arrival[static_cast<std::size_t>(sink)] = out.critical_delay;
}

std::vector<netlist::NodeId> critical_path(const netlist::Circuit& circuit,
                                           const ArrivalAnalysis& arrivals) {
  using netlist::NodeId;

  // Walk back from the latest-arriving sink input, always taking the
  // latest-arriving parent.
  NodeId v = netlist::kInvalidNode;
  double best = -1.0;
  for (NodeId p : circuit.inputs(circuit.sink())) {
    if (arrivals.arrival[static_cast<std::size_t>(p)] > best) {
      best = arrivals.arrival[static_cast<std::size_t>(p)];
      v = p;
    }
  }
  LRSIZER_ASSERT(v != netlist::kInvalidNode);

  std::vector<NodeId> path;
  while (v != circuit.source()) {
    path.push_back(v);
    NodeId next = netlist::kInvalidNode;
    best = -1.0;
    for (NodeId p : circuit.inputs(v)) {
      const double a = arrivals.arrival[static_cast<std::size_t>(p)];
      if (a > best) {
        best = a;
        next = p;
      }
    }
    LRSIZER_ASSERT(next != netlist::kInvalidNode);
    v = next;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace lrsizer::timing
