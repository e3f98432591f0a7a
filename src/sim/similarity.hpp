// Switching similarity (paper §3.2) and the derived Miller weight.
//
//   similarity(i,j) = (1/T_D) ∫ f(i,t) f(j,t) dt ∈ [-1, 1]
//   miller_weight(i,j) = 1 - similarity(i,j) ∈ [0, 2]
//
// miller_weight is the "effective loading" factor the WOSS ordering
// minimizes: 0 for perfectly correlated neighbors (anti-Miller), 2 for
// perfectly anti-correlated neighbors (full Miller effect).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/waveform.hpp"

namespace lrsizer::sim {

/// The two instantiations of the pairwise count loop. They count the same
/// integers, so they give the same similarities bit for bit.
enum class BitCount {
  kPortable,  ///< popcount64's SWAR sequence; any CPU
  kHardware,  ///< the POPCNT instruction; x86-64 CPUs that have it
};

/// The instantiation SimilarityMatrix uses, picked once per process:
/// kHardware on an x86-64 CPU with POPCNT (GCC/Clang builds), else kPortable.
BitCount native_bit_count();

/// Row-major n × n similarities of `rows` (each `words` words of a bit row
/// over [0, horizon), zero past it), counted by `count`'s instantiation.
/// kHardware needs native_bit_count() == kHardware.
std::vector<double> pairwise_similarities(std::span<const std::uint64_t* const> rows,
                                          std::size_t words, SimTime horizon,
                                          BitCount count);

/// Dense symmetric similarity matrix over a set of nets.
class SimilarityMatrix {
 public:
  /// Pairwise similarities of `nets` (net indices of `sim`), counted
  /// straight from the simulator's rows.
  SimilarityMatrix(const SimResult& sim, const std::vector<std::int32_t>& nets);

  /// Pairwise similarities of explicitly given waveforms over [0, horizon),
  /// each first written into a row of bits like the simulator's.
  SimilarityMatrix(const std::vector<Waveform>& waveforms, SimTime horizon);

  std::int32_t size() const { return n_; }

  /// similarity between the a-th and b-th net of the constructor list.
  double at(std::int32_t a, std::int32_t b) const {
    return values_[static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(b)];
  }

  double miller_weight(std::int32_t a, std::int32_t b) const { return 1.0 - at(a, b); }

  /// Consumes the matrix: turns every value into its Miller weight 1 − s in
  /// place and hands back the n × n row-major array, so a caller that wants
  /// the weights needs no second matrix.
  std::vector<double> take_miller_weights() &&;

 private:
  std::int32_t n_;
  std::vector<double> values_;
};

}  // namespace lrsizer::sim
