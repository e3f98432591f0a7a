// Wire ordering for the Switching Similarity (SS) problem (paper §3.2).
//
// Given n wires and the pairwise weight matrix w(i,j) = 1 - similarity(i,j),
// find an ordering <w1..wn> minimizing Σ w(w_k, w_{k+1}) — the total
// effective loading between neighboring tracks. SS is NP-hard (Theorem 2;
// no constant-factor approximation unless P=NP), so the paper uses the
// greedy WOSS heuristic (Figure 7): seed with the minimum-weight edge, then
// repeatedly append the nearest unused wire to the chain tail. O(n²).
//
// We also provide the exhaustive optimum (for n <= 12; used by tests and
// the WOSS-quality bench) and a seeded random ordering baseline.
#pragma once

#include <cstdint>
#include <vector>

namespace lrsizer::layout {

/// Dense symmetric weight matrix, row-major. The only weight type: the
/// O(n²) loops below read at() inline.
class DenseWeights {
 public:
  DenseWeights(std::int32_t n, std::vector<double> values);
  std::int32_t size() const { return n_; }
  double at(std::int32_t a, std::int32_t b) const {
    return values_[static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(b)];
  }

 private:
  std::int32_t n_;
  std::vector<double> values_;
};

/// Σ of adjacent-pair weights along `order`.
double ordering_cost(const DenseWeights& weights, const std::vector<std::int32_t>& order);

/// Paper Figure 7 (WOSS): greedy chain growth from the minimum-weight edge.
std::vector<std::int32_t> woss_ordering(const DenseWeights& weights);

/// Exhaustive minimum over all orderings; n <= 12.
std::vector<std::int32_t> optimal_ordering_bruteforce(const DenseWeights& weights);

/// Seeded shuffle baseline.
std::vector<std::int32_t> random_ordering(std::int32_t n, std::uint64_t seed);

}  // namespace lrsizer::layout
