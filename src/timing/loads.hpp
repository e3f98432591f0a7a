// Downstream capacitance passes (paper §2.1 circuit model + §4 coupling).
//
// Stage-local Elmore load model: a gate's input capacitance terminates its
// fanin stage; a wire's π-model puts (ĉx+f)/2 at each end. For every node i
// we compute, in one reverse-topological sweep:
//
//   cap_delay[i]  = C_i   — everything downstream of r_i, including the
//                           wire's own output half ("self-loading") and the
//                           wire's coupling capacitance; drives D_i = r_i·C_i.
//   cap_prime[i]  = C'_i  — C_i with all x_i-proportional terms removed and
//                           the neighbor-size coupling Σ ĉ_ij·x_j removed
//                           (Theorem 5 adds that term explicitly).
//   load_in[i]    = the capacitance component i presents to its parent.
//
// CouplingLoadMode selects whether a wire's coupling capacitance is charged
// only to the victim wire's own delay (kLocalOnly — matches Theorem 5's
// resize rule exactly) or also propagates into upstream loads
// (kPropagateUpstream — physical ground-cap approximation; compared in
// bench_ablation). See docs/ARCHITECTURE.md, decision D4.
#pragma once

#include <vector>

#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"

namespace lrsizer::timing {

enum class CouplingLoadMode {
  kLocalOnly,
  kPropagateUpstream,
};

struct LoadAnalysis {
  std::vector<double> cap_delay;
  std::vector<double> cap_prime;
  std::vector<double> load_in;

  void resize(std::size_t n) {
    // Re-zeroing is skipped when the shape is unchanged: compute_loads
    // overwrites every entry for nodes 1..sink-1 unconditionally, and the
    // source/sink entries stay at the 0 this first-time fill wrote. Dropping
    // the three O(n) refills matters — the OGWS hot loop runs this pass
    // several times per iteration.
    if (cap_delay.size() == n) return;
    cap_delay.assign(n, 0.0);
    cap_prime.assign(n, 0.0);
    load_in.assign(n, 0.0);
  }
};

/// One reverse-topological sweep; O(|V| + |E| + |pairs|).
void compute_loads(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                   const std::vector<double>& x, CouplingLoadMode mode,
                   LoadAnalysis& out);

/// compute_loads' kLocalOnly sweep without C_i: writes cap_prime and load_in
/// — all that a forward LRS walk and the next sweep read — bit for bit as
/// compute_loads writes them, and leaves cap_delay as it was. A wire's C'_i
/// takes Σ c̃_ij from CouplingSet::c_tilde_sum, so the sweep reads no
/// neighbor list; O(|V| + |E|). `out` must be sized (LoadAnalysis::resize).
/// kPropagateUpstream has no such sweep: its load_in carries the coupling
/// terms.
void compute_prime_loads(const netlist::Circuit& circuit,
                         const layout::CouplingSet& coupling,
                         const std::vector<double>& x, LoadAnalysis& out);

}  // namespace lrsizer::timing
