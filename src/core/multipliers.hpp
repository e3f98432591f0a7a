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
// edges whose own subgradient grew — i.e. critical paths.
#pragma once

#include <vector>

#include "netlist/circuit.hpp"
#include "util/memtrack.hpp"

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

  /// Clamp λ, β, γ at 0 (condition (4) of Theorem 6).
  void clamp_nonnegative();

  /// A5: restore flow conservation (see header comment). λ must be >= 0.
  void project_flow(const netlist::Circuit& circuit);

  /// μ_i = Σ_{j ∈ input(i)} λ_ji for every node (source gets 0). Gathers per
  /// node over the in-edge CSR (ascending EdgeId, the same accumulation order
  /// as an edge scatter).
  void compute_mu(const netlist::Circuit& circuit, std::vector<double>& mu) const;

  /// Σ of sink in-edge multipliers (the -μ_sink·A0 constant of LRS₂).
  double sink_mu(const netlist::Circuit& circuit) const;

  /// max_i |Σ_out - Σ_in| / max(Σ_in, ε) over 1 <= i <= n+s; 0 after
  /// project_flow up to roundoff. Used by tests/diagnostics.
  double flow_residual(const netlist::Circuit& circuit) const;

  void account_memory(util::MemoryTracker& tracker) const;
};

}  // namespace lrsizer::core
