#include "sim/patterns.hpp"

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace lrsizer::sim {

std::vector<std::vector<int>> random_vectors(std::int32_t num_inputs,
                                             std::int32_t num_vectors,
                                             std::uint64_t seed) {
  LRSIZER_ASSERT(num_inputs > 0 && num_vectors > 0);
  util::Rng rng(seed);
  std::vector<std::vector<int>> vectors(static_cast<std::size_t>(num_vectors));
  for (auto& row : vectors) {
    row.resize(static_cast<std::size_t>(num_inputs));
    for (auto& bit : row) bit = rng.bernoulli(0.5) ? 1 : 0;
  }
  return vectors;
}

}  // namespace lrsizer::sim
