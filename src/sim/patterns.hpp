// Test pattern generation. The paper takes patterns "from the logic
// simulation stage"; we generate seeded pseudo-random vectors (see
// docs/ARCHITECTURE.md, substitution S2).
#pragma once

#include <cstdint>
#include <vector>

namespace lrsizer::sim {

/// `num_vectors` rows of `num_inputs` bits each (0/1).
std::vector<std::vector<int>> random_vectors(std::int32_t num_inputs,
                                             std::int32_t num_vectors,
                                             std::uint64_t seed);

}  // namespace lrsizer::sim
