#include "core/multipliers.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/memtrack.hpp"

namespace lrsizer::core {

MultiplierState::MultiplierState(const netlist::Circuit& circuit)
    : lambda(static_cast<std::size_t>(circuit.num_edges()), 0.0) {}

void MultiplierState::init_default(const netlist::Circuit& circuit) {
  std::fill(lambda.begin(), lambda.end(), 0.0);
  for (netlist::EdgeId e : circuit.input_edges(circuit.sink())) {
    lambda[static_cast<std::size_t>(e)] = 1.0;
  }
  project_flow(circuit);
  beta = 0.0;
  gamma = 0.0;
}

void MultiplierState::clamp_nonnegative() {
  for (double& v : lambda) v = std::max(v, 0.0);
  beta = std::max(beta, 0.0);
  gamma = std::max(gamma, 0.0);
  for (double& v : gamma_net) v = std::max(v, 0.0);
}

void MultiplierState::project_flow(const netlist::Circuit& circuit) {
  // Reverse topological order = descending node index (index contract). Each
  // node rescales only its in-edges and reads only its out-edges, which are
  // in-edges of higher-index nodes and so already final (sink edges are never
  // rescaled).
  for (netlist::NodeId v = circuit.sink() - 1; v >= 1; --v) {
    double out_sum = 0.0;
    for (netlist::EdgeId e : circuit.output_edges(v)) {
      out_sum += lambda[static_cast<std::size_t>(e)];
    }
    const auto in_edges = circuit.input_edges(v);
    double in_sum = 0.0;
    for (netlist::EdgeId e : in_edges) in_sum += lambda[static_cast<std::size_t>(e)];
    if (in_sum > 0.0) {
      const double scale = out_sum / in_sum;
      for (netlist::EdgeId e : in_edges) lambda[static_cast<std::size_t>(e)] *= scale;
    } else {
      const double share = out_sum / static_cast<double>(in_edges.size());
      for (netlist::EdgeId e : in_edges) lambda[static_cast<std::size_t>(e)] = share;
    }
  }
}

void MultiplierState::compute_mu(const netlist::Circuit& circuit,
                                 std::vector<double>& mu) const {
  const auto n = static_cast<std::size_t>(circuit.num_nodes());
  mu.assign(n, 0.0);
  // Gather over the in-edge CSR. In-edge lists store ascending EdgeIds (the
  // builder emits them sorted), which is exactly the order an ascending edge
  // scatter would accumulate into each node — so this form is bit-identical
  // to the historical scatter loop.
  for (netlist::NodeId v = 0; v < circuit.num_nodes(); ++v) {
    double sum = 0.0;
    for (netlist::EdgeId e : circuit.input_edges(v)) {
      sum += lambda[static_cast<std::size_t>(e)];
    }
    mu[static_cast<std::size_t>(v)] = sum;
  }
}

double MultiplierState::sink_mu(const netlist::Circuit& circuit) const {
  double sum = 0.0;
  for (netlist::EdgeId e : circuit.input_edges(circuit.sink())) {
    sum += lambda[static_cast<std::size_t>(e)];
  }
  return sum;
}

double MultiplierState::flow_residual(const netlist::Circuit& circuit) const {
  double worst = 0.0;
  for (netlist::NodeId v = 1; v < circuit.sink(); ++v) {
    double in_sum = 0.0;
    double out_sum = 0.0;
    for (netlist::EdgeId e : circuit.input_edges(v)) {
      in_sum += lambda[static_cast<std::size_t>(e)];
    }
    for (netlist::EdgeId e : circuit.output_edges(v)) {
      out_sum += lambda[static_cast<std::size_t>(e)];
    }
    worst = std::max(worst, std::abs(out_sum - in_sum) / std::max(in_sum, 1e-30));
  }
  return worst;
}

std::size_t MultiplierState::memory_bytes() const {
  return util::vector_bytes(lambda) + util::vector_bytes(gamma_net);
}

}  // namespace lrsizer::core
