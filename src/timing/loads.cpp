#include "timing/loads.hpp"

#include "util/assert.hpp"

namespace lrsizer::timing {

namespace {

/// Node v's load entries, the per-node body of both sweeps: they run it
/// once per node in descending order, so v's children's load_in entries are
/// final. Writes only node v's slots. kWithDelay also writes cap_delay,
/// which needs the coupling neighbors' sizes; without it the body reads no
/// neighbor list.
template <bool kWithDelay>
inline void node_loads(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                       const std::vector<double>& x, LoadAnalysis& out,
                       netlist::NodeId v) {
  using netlist::NodeId;
  using netlist::NodeKind;
  const NodeId sink = circuit.sink();
  const auto i = static_cast<std::size_t>(v);

  double child_sum = circuit.pin_load(v);  // C_L attached at this output
  for (NodeId child : circuit.outputs(v)) {
    if (child == sink) continue;  // the sink edge itself carries no cap
    child_sum += out.load_in[static_cast<std::size_t>(child)];
  }

  switch (circuit.kind(v)) {
    case NodeKind::kGate: {
      // A gate drives its fanout stage; its own input cap faces upstream.
      if constexpr (kWithDelay) out.cap_delay[i] = child_sum;
      out.cap_prime[i] = child_sum;
      out.load_in[i] = circuit.unit_cap(v) * x[i];
      break;
    }
    case NodeKind::kWire: {
      const double half = 0.5 * (circuit.unit_cap(v) * x[i] + circuit.fringe_cap(v));
      const double couple_const = coupling.c_tilde_sum(v);  // Σ c̃_ij (effective)
      out.cap_prime[i] = 0.5 * circuit.fringe_cap(v) + couple_const + child_sum;
      // Parent sees both π halves plus the downstream subtree; coupling
      // stays on the victim (D4).
      const double ground_down = half + child_sum;
      out.load_in[i] = half + ground_down;
      if constexpr (kWithDelay) {
        double couple_own = 0.0;  // Σ ĉ_ij x_i
        double couple_nbr = 0.0;  // Σ ĉ_ij x_j
        for (const auto& nb : coupling.neighbors(v)) {
          couple_own += nb.c_hat * x[i];
          couple_nbr += nb.c_hat * x[static_cast<std::size_t>(nb.other)];
        }
        out.cap_delay[i] = half + couple_const + couple_own + couple_nbr + child_sum;
      }
      break;
    }
    case NodeKind::kDriver: {
      if constexpr (kWithDelay) out.cap_delay[i] = child_sum;
      out.cap_prime[i] = child_sum;
      out.load_in[i] = 0.0;  // drivers are roots; nothing is upstream
      break;
    }
    case NodeKind::kSource:
    case NodeKind::kSink:
      break;
  }
}

}  // namespace

void compute_loads(const netlist::Circuit& circuit, const layout::CouplingSet& coupling,
                   const std::vector<double>& x, LoadAnalysis& out) {
  using netlist::NodeId;

  const auto n = static_cast<std::size_t>(circuit.num_nodes());
  LRSIZER_ASSERT(x.size() == n);
  out.resize(n);

  // Reverse topological order = descending node index (index contract).
  for (NodeId v = circuit.sink() - 1; v >= 1; --v) {
    node_loads<true>(circuit, coupling, x, out, v);
  }
}

void compute_prime_loads(const netlist::Circuit& circuit,
                         const layout::CouplingSet& coupling,
                         const std::vector<double>& x, LoadAnalysis& out) {
  LRSIZER_ASSERT(x.size() == static_cast<std::size_t>(circuit.num_nodes()));
  LRSIZER_ASSERT(out.cap_prime.size() == x.size());
  for (netlist::NodeId v = circuit.sink() - 1; v >= 1; --v) {
    node_loads<false>(circuit, coupling, x, out, v);
  }
}

}  // namespace lrsizer::timing
