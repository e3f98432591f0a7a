#include "layout/ordering.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace lrsizer::layout {

DenseWeights::DenseWeights(std::int32_t n, std::vector<double> values)
    : n_(n), values_(std::move(values)) {
  LRSIZER_ASSERT(n >= 0);
  LRSIZER_ASSERT(values_.size() ==
                 static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
}

double ordering_cost(const DenseWeights& weights, const std::vector<std::int32_t>& order) {
  double cost = 0.0;
  for (std::size_t k = 1; k < order.size(); ++k) {
    cost += weights.at(order[k - 1], order[k]);
  }
  return cost;
}

std::vector<std::int32_t> woss_ordering(const DenseWeights& weights) {
  const std::int32_t n = weights.size();
  if (n == 0) return {};
  if (n == 1) return {0};

  // A1: seed with the global minimum-weight edge (ties: smallest indices).
  std::int32_t best_a = 0;
  std::int32_t best_b = 1;
  double best_w = weights.at(0, 1);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (weights.at(a, b) < best_w) {
        best_w = weights.at(a, b);
        best_a = a;
        best_b = b;
      }
    }
  }

  std::vector<std::int32_t> order = {best_a, best_b};
  std::vector<bool> used(static_cast<std::size_t>(n), false);
  used[static_cast<std::size_t>(best_a)] = true;
  used[static_cast<std::size_t>(best_b)] = true;

  // A2: repeatedly append the nearest unused wire to the chain tail.
  for (std::int32_t k = 2; k < n; ++k) {
    const std::int32_t tail = order.back();
    std::int32_t best_j = -1;
    double best = std::numeric_limits<double>::infinity();
    for (std::int32_t j = 0; j < n; ++j) {
      if (used[static_cast<std::size_t>(j)]) continue;
      if (weights.at(tail, j) < best) {
        best = weights.at(tail, j);
        best_j = j;
      }
    }
    LRSIZER_ASSERT(best_j >= 0);
    order.push_back(best_j);
    used[static_cast<std::size_t>(best_j)] = true;
  }
  return order;
}

std::vector<std::int32_t> optimal_ordering_bruteforce(const DenseWeights& weights) {
  const std::int32_t n = weights.size();
  LRSIZER_ASSERT_MSG(n <= 16, "exact ordering is exponential; use n <= 16");
  if (n == 0) return {};
  if (n == 1) return {0};

  // Held-Karp path DP: dp[mask][last] = cheapest chain visiting `mask`
  // that ends at `last`.
  const std::uint32_t full = (n == 32) ? ~0u : ((1u << n) - 1u);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(static_cast<std::size_t>(full + 1) * static_cast<std::size_t>(n),
                         inf);
  std::vector<std::int8_t> parent(dp.size(), -1);
  auto idx = [n](std::uint32_t mask, std::int32_t last) {
    return static_cast<std::size_t>(mask) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(last);
  };
  for (std::int32_t v = 0; v < n; ++v) dp[idx(1u << v, v)] = 0.0;

  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    for (std::int32_t last = 0; last < n; ++last) {
      if ((mask & (1u << last)) == 0) continue;
      const double base = dp[idx(mask, last)];
      if (base == inf) continue;
      for (std::int32_t next = 0; next < n; ++next) {
        if ((mask & (1u << next)) != 0) continue;
        const std::uint32_t nmask = mask | (1u << next);
        const double cand = base + weights.at(last, next);
        if (cand < dp[idx(nmask, next)]) {
          dp[idx(nmask, next)] = cand;
          parent[idx(nmask, next)] = static_cast<std::int8_t>(last);
        }
      }
    }
  }

  std::int32_t best_last = 0;
  for (std::int32_t v = 1; v < n; ++v) {
    if (dp[idx(full, v)] < dp[idx(full, best_last)]) best_last = v;
  }
  std::vector<std::int32_t> order;
  std::uint32_t mask = full;
  std::int32_t last = best_last;
  while (last >= 0) {
    order.push_back(last);
    const std::int8_t prev = parent[idx(mask, last)];
    mask &= ~(1u << last);
    last = prev;
  }
  LRSIZER_ASSERT(mask == 0);
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<std::int32_t> random_ordering(std::int32_t n, std::uint64_t seed) {
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  util::Rng rng(seed);
  for (std::int32_t k = n - 1; k > 0; --k) {
    const auto j = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(k) + 1));
    std::swap(order[static_cast<std::size_t>(k)], order[j]);
  }
  return order;
}

}  // namespace lrsizer::layout
