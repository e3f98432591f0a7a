#include "layout/neighbors.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/memtrack.hpp"

namespace lrsizer::layout {

CouplingSet::CouplingSet(netlist::NodeId num_nodes, std::vector<Pair> pairs)
    : pairs_(std::move(pairs)) {
  for (auto& p : pairs_) {
    LRSIZER_ASSERT(p.a >= 0 && p.b >= 0 && p.a != p.b);
    if (p.a > p.b) std::swap(p.a, p.b);
    LRSIZER_ASSERT(p.b < num_nodes);
    LRSIZER_ASSERT(p.miller >= 0.0 && p.miller <= 2.0);
  }

  offset_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& p : pairs_) {
    ++offset_[static_cast<std::size_t>(p.a) + 1];
    ++offset_[static_cast<std::size_t>(p.b) + 1];
  }
  for (std::size_t i = 1; i < offset_.size(); ++i) offset_[i] += offset_[i - 1];
  entries_.resize(static_cast<std::size_t>(offset_.back()));
  std::vector<std::int32_t> cursor(offset_.begin(), offset_.end() - 1);
  for (std::int32_t p = 0; p < static_cast<std::int32_t>(pairs_.size()); ++p) {
    const auto& pr = pairs_[static_cast<std::size_t>(p)];
    const double c_hat = pr.miller * pr.geom.c_hat();
    const double c_tilde = pr.miller * pr.geom.c_tilde();
    entries_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(pr.a)]++)] =
        Neighbor{pr.b, c_hat, c_tilde, p};
    entries_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(pr.b)]++)] =
        Neighbor{pr.a, c_hat, c_tilde, p};
  }
  c_tilde_sum_.resize(static_cast<std::size_t>(num_nodes));
  for (netlist::NodeId v = 0; v < num_nodes; ++v) {
    double sum = 0.0;
    for (const auto& nb : neighbors(v)) sum += nb.c_tilde;
    c_tilde_sum_[static_cast<std::size_t>(v)] = sum;
  }

  // Owner CSR: pair p belongs to I(pair.a).
  owner_offset_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& p : pairs_) ++owner_offset_[static_cast<std::size_t>(p.a) + 1];
  for (std::size_t i = 1; i < owner_offset_.size(); ++i) {
    owner_offset_[i] += owner_offset_[i - 1];
  }
  owner_pairs_.resize(pairs_.size());
  std::vector<std::int32_t> owner_cursor(owner_offset_.begin(), owner_offset_.end() - 1);
  for (std::int32_t p = 0; p < static_cast<std::int32_t>(pairs_.size()); ++p) {
    const auto a = static_cast<std::size_t>(pairs_[static_cast<std::size_t>(p)].a);
    owner_pairs_[static_cast<std::size_t>(owner_cursor[a]++)] = p;
  }
}

double CouplingSet::noise_linear(const std::vector<double>& x) const {
  double total = 0.0;
  for (std::int32_t p = 0; p < static_cast<std::int32_t>(pairs_.size()); ++p) {
    const auto& pr = pairs_[static_cast<std::size_t>(p)];
    total += pair_c_hat(p) * (x[static_cast<std::size_t>(pr.a)] +
                              x[static_cast<std::size_t>(pr.b)]);
  }
  return total;
}

double CouplingSet::noise_posynomial(const std::vector<double>& x, int order_k) const {
  double total = 0.0;
  for (const auto& pr : pairs_) {
    total += pr.miller * posynomial_coupling_cap(pr.geom,
                                                 x[static_cast<std::size_t>(pr.a)],
                                                 x[static_cast<std::size_t>(pr.b)],
                                                 order_k);
  }
  return total;
}

double CouplingSet::noise_exact(const std::vector<double>& x) const {
  double total = 0.0;
  for (const auto& pr : pairs_) {
    const double xa = x[static_cast<std::size_t>(pr.a)];
    const double xb = x[static_cast<std::size_t>(pr.b)];
    const double u = coupling_ratio(xa, xb, pr.geom.pitch_um);
    if (u < 1.0) {
      total += pr.miller * exact_coupling_cap(pr.geom, xa, xb);
    } else {
      total += pr.miller * posynomial_coupling_cap(pr.geom, xa, xb, 4);
    }
  }
  return total;
}

std::size_t CouplingSet::memory_bytes() const {
  return util::vector_bytes(pairs_) + util::vector_bytes(offset_) + util::vector_bytes(entries_) +
         util::vector_bytes(c_tilde_sum_) + util::vector_bytes(owner_offset_) +
         util::vector_bytes(owner_pairs_);
}

CouplingSet build_coupling_set(const netlist::Circuit& circuit,
                               const std::vector<std::vector<netlist::NodeId>>& orders,
                               const NeighborOptions& options,
                               const MillerFn& miller) {
  LRSIZER_ASSERT(options.pitch_um > 0.0);
  std::vector<CouplingSet::Pair> pairs;
  for (const auto& order : orders) {
    for (std::size_t k = 1; k < order.size(); ++k) {
      const netlist::NodeId a = order[k - 1];
      const netlist::NodeId b = order[k];
      LRSIZER_ASSERT(circuit.is_wire(a) && circuit.is_wire(b));
      CouplingSet::Pair pair;
      pair.a = a;
      pair.b = b;
      pair.geom.overlap_um = std::min(circuit.wire_length(a), circuit.wire_length(b));
      pair.geom.pitch_um = options.pitch_um;
      pair.geom.fringe_per_um = options.fringe_per_um;
      pair.miller = (options.fold_miller && miller) ? miller(a, b) : 1.0;
      pairs.push_back(pair);
    }
  }
  return CouplingSet(circuit.num_nodes(), std::move(pairs));
}

}  // namespace lrsizer::layout
