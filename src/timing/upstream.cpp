#include "timing/upstream.hpp"

#include "util/assert.hpp"

namespace lrsizer::timing {

namespace {

/// Fixed chunk size of the parallel upstream pass (Executor contract).
constexpr std::int32_t kGrain = 64;

}  // namespace

// The per-node body, shared verbatim by the sequential, wavefront and
// incremental paths so all three are bit-identical. Writes r_up[v] only;
// reads the parents' r_up (earlier forward levels, smaller indices).
void compute_node_upstream(const netlist::Circuit& circuit,
                           const std::vector<double>& x,
                           const std::vector<double>& mu,
                           std::vector<double>& r_up, netlist::NodeId v) {
  double acc = 0.0;
  for (netlist::NodeId p : circuit.inputs(v)) {
    if (p == circuit.source()) continue;  // drivers: nothing upstream
    const auto pi = static_cast<std::size_t>(p);
    acc += mu[pi] * circuit.resistance(p, x[pi]);
    if (circuit.is_wire(p)) acc += r_up[pi];
  }
  r_up[static_cast<std::size_t>(v)] = acc;
}

void compute_weighted_upstream(const netlist::Circuit& circuit,
                               const std::vector<double>& x,
                               const std::vector<double>& mu,
                               std::vector<double>& r_up,
                               util::Executor* exec) {
  using netlist::NodeId;

  const auto n = static_cast<std::size_t>(circuit.num_nodes());
  LRSIZER_ASSERT(x.size() == n);
  LRSIZER_ASSERT(mu.size() == n);
  // Every node 1..sink-1 is written below; source/sink keep the first-time
  // zeros (shape-keyed refill skip, see LoadAnalysis::resize).
  if (r_up.size() != n) r_up.assign(n, 0.0);

  auto upstream_node = [&](NodeId v) { compute_node_upstream(circuit, x, mu, r_up, v); };

  if (util::serial(exec)) {
    for (NodeId v = 1; v < circuit.sink(); ++v) upstream_node(v);
    return;
  }
  const netlist::LevelSchedule& schedule = circuit.forward_levels();
  for (std::int32_t l = 0; l < schedule.num_levels(); ++l) {
    const auto nodes = schedule.level(l);
    exec->run_chunks(static_cast<std::int32_t>(nodes.size()), kGrain,
                     [&](std::int32_t begin, std::int32_t end) {
                       for (std::int32_t k = begin; k < end; ++k) {
                         upstream_node(nodes[static_cast<std::size_t>(k)]);
                       }
                     });
  }
}

}  // namespace lrsizer::timing
