// Lagrange multiplier state (paper §4.2).
//
// One multiplier λ per circuit edge (delay constraints), plus β (power) and
// γ (crosstalk). Theorem 3 requires flow conservation on λ at every node
// except source/sink: Σ_out λ = Σ_in λ — the "Kirchhoff's current law"
// optimality condition. Algorithm OGWS's step A5 projects onto it after
// each subgradient update.
//
// Projection choice (docs/ARCHITECTURE.md, decision D2): exact Euclidean projection onto the KCL
// polytope is a QP, so — like practical LR sizers — we restore conservation
// with one *reverse-topological proportional rescaling* pass: processing
// nodes from the sink side, each node's in-edge multipliers are rescaled to
// sum to its (already final) out-edge sum. The sink's in-edges (the A0
// constraints' multipliers) are the boundary values, so delay-bound
// pressure propagates backward through the whole DAG, concentrating on
// edges whose own subgradient grew — i.e. critical paths. The OGWS dual
// step runs its λ update, the clamp and A2's μ sums in that same walk
// (step_and_project).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "netlist/circuit.hpp"

namespace lrsizer::core {

class MultiplierState {
 public:
  explicit MultiplierState(const netlist::Circuit& circuit);

  /// λ per EdgeId.
  std::vector<double> lambda;
  double beta = 0.0;
  double gamma = 0.0;
  /// Per-net crosstalk multipliers (paper §4.1's distributed-bound
  /// extension), indexed by owner NodeId; empty when the extension is off.
  std::vector<double> gamma_net;

  /// Start point: sink in-edges = 1, everything distributed backward evenly
  /// (KCL holds by construction); β, γ small positive values.
  void init_default(const netlist::Circuit& circuit);

  /// A5: restore flow conservation (see header comment): step_and_project
  /// without a step. λ must be >= 0.
  void project_flow(const netlist::Circuit& circuit);

  /// A4's λ update, A5 and the next iteration's A2 in one reverse walk. The
  /// sink's in-edges are stepped and clamped at 0 first; then each node v
  /// from sink − 1 down to 1 steps its in-edges, clamps them, rescales them
  /// onto its out-edges (in-edges of higher nodes, so already final) and,
  /// when `mu` is set, stores their sum as μ_v (μ_source = 0, μ_sink = the
  /// sink's in-edge sum). `step(v, j, λ_jv)` updates the multiplier of
  /// edge (j, v) in place and must read no other λ. Every λ and μ equals
  /// what separate passes produce — step every edge, clamp every λ, rescale
  /// node by node from the sink side, compute_mu — bit for bit: each node's
  /// sums run in the same order over the same values.
  template <class Step>
  void step_and_project(const netlist::Circuit& circuit, Step&& step,
                        std::vector<double>* mu);

  /// μ_i = Σ_{j ∈ input(i)} λ_ji for every node (source gets 0). Gathers per
  /// node over the in-edge CSR (ascending EdgeId, the same accumulation order
  /// as an edge scatter).
  void compute_mu(const netlist::Circuit& circuit, std::vector<double>& mu) const;

  /// Σ of sink in-edge multipliers (the -μ_sink·A0 constant of LRS₂).
  double sink_mu(const netlist::Circuit& circuit) const;

  /// max_i |Σ_out - Σ_in| / max(Σ_in, ε) over 1 <= i <= n+s; 0 after
  /// project_flow up to roundoff. Used by tests/diagnostics.
  double flow_residual(const netlist::Circuit& circuit) const;

  /// Bytes held by the edge and per-net multiplier arrays.
  std::size_t memory_bytes() const;
};

template <class Step>
void MultiplierState::step_and_project(const netlist::Circuit& circuit, Step&& step,
                                       std::vector<double>* mu) {
  // Steps and clamps v's in-edges; returns their sum, accumulated in
  // in-edge order as the rescaling and compute_mu sum them.
  auto step_in_edges = [&](netlist::NodeId v) {
    const auto in_nodes = circuit.inputs(v);
    const auto in_edges = circuit.input_edges(v);
    double in_sum = 0.0;
    for (std::size_t slot = 0; slot < in_edges.size(); ++slot) {
      double& value = lambda[static_cast<std::size_t>(in_edges[slot])];
      step(v, in_nodes[slot], value);
      value = std::max(value, 0.0);
      in_sum += value;
    }
    return in_sum;
  };
  const netlist::NodeId sink = circuit.sink();
  const double sink_sum = step_in_edges(sink);
  if (mu != nullptr) {
    mu->resize(static_cast<std::size_t>(circuit.num_nodes()));
    (*mu)[0] = 0.0;
    (*mu)[static_cast<std::size_t>(sink)] = sink_sum;
  }
  for (netlist::NodeId v = sink - 1; v >= 1; --v) {
    double out_sum = 0.0;
    for (netlist::EdgeId e : circuit.output_edges(v)) {
      out_sum += lambda[static_cast<std::size_t>(e)];
    }
    const double in_sum = step_in_edges(v);
    const auto in_edges = circuit.input_edges(v);
    double mu_v = 0.0;
    if (in_sum > 0.0) {
      const double scale = out_sum / in_sum;
      for (netlist::EdgeId e : in_edges) mu_v += lambda[static_cast<std::size_t>(e)] *= scale;
    } else {
      const double share = out_sum / static_cast<double>(in_edges.size());
      for (netlist::EdgeId e : in_edges) mu_v += lambda[static_cast<std::size_t>(e)] = share;
    }
    if (mu != nullptr) (*mu)[static_cast<std::size_t>(v)] = mu_v;
  }
}

}  // namespace lrsizer::core
