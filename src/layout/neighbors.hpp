// Adjacent-wire coupling pairs: the paper's N(i) / I(i) sets plus the
// noise metrics over them.
//
// After stage 1 fixes a track order per channel, adjacent tracks form
// coupling pairs. Each pair carries its geometry (overlap, pitch, fringing)
// and the stage-1 Miller weight m_ij = 1 - similarity(i,j). With Miller
// folding enabled (the literal reading of the paper's Eq. 1), the effective
// coefficients are m_ij·c̃_ij and m_ij·ĉ_ij — still constants, so every
// posynomial property is preserved; disabled, the pure Eq. 3 capacitances
// are used (the paper's stage-2 text).
//
// Definition note (docs/ARCHITECTURE.md, decision D1): I(i) = { j ∈ N(i) : j > i }, so the noise
// double sum Σ_{i∈W} Σ_{j∈I(i)} counts every adjacent pair exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "layout/coupling.hpp"
#include "netlist/circuit.hpp"
#include "util/assert.hpp"

namespace lrsizer::layout {

class CouplingSet {
 public:
  struct Pair {
    netlist::NodeId a = netlist::kInvalidNode;  ///< smaller node id
    netlist::NodeId b = netlist::kInvalidNode;  ///< larger node id
    CouplingGeometry geom;
    double miller = 1.0;  ///< folded into the effective coefficients
  };

  /// One entry of N(i): the neighbor and the effective coefficients.
  struct Neighbor {
    netlist::NodeId other = netlist::kInvalidNode;
    double c_hat = 0.0;    ///< effective ĉ_ij [F/µm]
    double c_tilde = 0.0;  ///< effective c̃_ij [F]
    std::int32_t pair = -1;
  };

  CouplingSet() = default;
  CouplingSet(netlist::NodeId num_nodes, std::vector<Pair> pairs);

  const std::vector<Pair>& pairs() const { return pairs_; }

  // The per-node accessors below are defined in this header: LRS, the load
  // pass and the per-net dual step call them once per node per pass.

  /// N(v): v's coupling neighbors.
  std::span<const Neighbor> neighbors(netlist::NodeId v) const {
    if (offset_.empty()) return {};
    const auto i = static_cast<std::size_t>(v);
    LRSIZER_ASSERT(i + 1 < offset_.size());
    return {entries_.data() + offset_[i],
            static_cast<std::size_t>(offset_[i + 1] - offset_[i])};
  }

  /// Pairs *owned* by wire v, i.e. { (v, j) : j ∈ I(v) } — the per-wire
  /// slice of the noise double sum (each pair is owned by its smaller node).
  std::span<const std::int32_t> owned_pairs(netlist::NodeId v) const {
    if (owner_offset_.empty()) return {};
    const auto i = static_cast<std::size_t>(v);
    LRSIZER_ASSERT(i + 1 < owner_offset_.size());
    return {owner_pairs_.data() + owner_offset_[i],
            static_cast<std::size_t>(owner_offset_[i + 1] - owner_offset_[i])};
  }

  /// Σ_{j∈I(v)} ĉ_vj (x_v + x_j): wire v's own share of the noise metric
  /// (the left side of a distributed per-net crosstalk constraint).
  double owned_noise_linear(netlist::NodeId v, const std::vector<double>& x) const {
    double total = 0.0;
    for (std::int32_t p : owned_pairs(v)) {
      const auto& pr = pairs_[static_cast<std::size_t>(p)];
      total += pair_c_hat(p) * (x[static_cast<std::size_t>(pr.a)] +
                                x[static_cast<std::size_t>(pr.b)]);
    }
    return total;
  }

  /// Effective ĉ_ij of pair p (Miller folded).
  double pair_c_hat(std::int32_t p) const {
    const auto& pr = pairs_[static_cast<std::size_t>(p)];
    return pr.miller * pr.geom.c_hat();
  }
  /// Effective c̃_ij of pair p (Miller folded).
  double pair_c_tilde(std::int32_t p) const {
    const auto& pr = pairs_[static_cast<std::size_t>(p)];
    return pr.miller * pr.geom.c_tilde();
  }

  /// Σ_{i∈W} Σ_{j∈I(i)} ĉ_ij (x_i + x_j) — the sizing-dependent noise the
  /// paper's Table 1 reports and the modified crosstalk constraint bounds.
  double noise_linear(const std::vector<double>& x) const;

  /// Full order-k posynomial noise: Σ c̃_ij Σ_{n<k} u^n.
  double noise_posynomial(const std::vector<double>& x, int order_k) const;

  /// Exact Eq. 2 noise: Σ c̃_ij / (1 - u). Pairs at u >= 1 are clamped to
  /// the posynomial order-4 value (geometrically impossible region).
  double noise_exact(const std::vector<double>& x) const;

  /// Bytes held by the pair list and its adjacency arrays.
  std::size_t memory_bytes() const;

 private:
  std::vector<Pair> pairs_;
  std::vector<std::int32_t> offset_;
  std::vector<Neighbor> entries_;
  std::vector<std::int32_t> owner_offset_;
  std::vector<std::int32_t> owner_pairs_;
};

struct NeighborOptions {
  double pitch_um = 4.0;
  double fringe_per_um = 0.25e-15;  ///< f̂_ij [F/µm]
  bool fold_miller = true;
};

/// Miller weight callback: (wire_a, wire_b) -> 1 - similarity. Return 1.0
/// everywhere to reproduce the paper's unweighted stage-2 constraint.
using MillerFn = std::function<double(netlist::NodeId, netlist::NodeId)>;

/// Build coupling pairs from per-channel track orders: adjacent tracks
/// couple with overlap = min(length_a, length_b).
CouplingSet build_coupling_set(const netlist::Circuit& circuit,
                               const std::vector<std::vector<netlist::NodeId>>& orders,
                               const NeighborOptions& options,
                               const MillerFn& miller = {});

}  // namespace lrsizer::layout
