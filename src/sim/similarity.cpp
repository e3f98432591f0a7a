#include "sim/similarity.hpp"

#include <span>

#include "util/assert.hpp"

namespace lrsizer::sim {

namespace {

constexpr SimTime kTicksPerWord = 64;

/// Write `w`'s values over [0, horizon) into the zeroed `bits`, one tick per
/// bit (bit t % 64 of word t / 64); bits at and past the horizon stay 0 so
/// they never count as disagreement. Each toggle inside the window marks its
/// tick, and a running XOR seeded with the initial value turns the marks
/// into values.
void fill_bits(const Waveform& w, SimTime horizon, std::span<std::uint64_t> bits) {
  const auto& toggles = w.toggles();
  LRSIZER_ASSERT_MSG(toggles.empty() || toggles.front() >= 0,
                     "waveform toggles before t = 0");
  for (SimTime t : toggles) {
    if (t >= horizon) break;
    bits[static_cast<std::size_t>(t / kTicksPerWord)] |= std::uint64_t{1}
                                                         << (t % kTicksPerWord);
  }
  std::uint64_t carry = w.initial_value() != 0 ? ~std::uint64_t{0} : 0;
  for (std::uint64_t& word : bits) {
    std::uint64_t x = word;  // prefix XOR inside the word
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    word = x ^ carry;
    carry = std::uint64_t{0} - (word >> 63);
  }
  if (const SimTime tail = horizon % kTicksPerWord; tail != 0) {
    bits.back() &= (std::uint64_t{1} << tail) - 1;
  }
}

/// Set bits of a ^ b over `words` words: the ticks where two bitsets
/// disagree. Counted by SWAR arithmetic, since a portable build has no
/// popcount instruction and std::popcount would call into libgcc per word.
std::int64_t count_disagree(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
  std::int64_t total = 0;
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t x = a[k] ^ b[k];
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    total += static_cast<std::int64_t>((x * 0x0101010101010101ULL) >> 56);
  }
  return total;
}

/// Pairwise similarities, word-parallel: with both waveforms as bitsets over
/// [0, T), the ticks where they disagree are popcount(a ^ b), and
/// similarity = (T − 2·disagree) / T — the same two integers the merged
/// toggle sweep of Waveform::similarity accumulates, so the same double.
std::vector<double> pairwise(const std::vector<const Waveform*>& w, SimTime horizon) {
  LRSIZER_ASSERT(horizon > 0);
  const auto n = w.size();
  std::vector<double> values(n * n, 1.0);
  if (n < 2) return values;
  const auto words = static_cast<std::size_t>((horizon + kTicksPerWord - 1) / kTicksPerWord);
  std::vector<std::uint64_t> bits(n * words);
  for (std::size_t a = 0; a < n; ++a) {
    fill_bits(*w[a], horizon, std::span(bits).subspan(a * words, words));
  }
  for (std::size_t a = 0; a < n; ++a) {
    const std::uint64_t* wa = bits.data() + a * words;
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::uint64_t* wb = bits.data() + b * words;
      const std::int64_t disagree = count_disagree(wa, wb, words);
      const double s =
          static_cast<double>(horizon - 2 * disagree) / static_cast<double>(horizon);
      values[a * n + b] = s;
      values[b * n + a] = s;
    }
  }
  return values;
}

}  // namespace

SimilarityMatrix::SimilarityMatrix(const SimResult& sim,
                                   const std::vector<std::int32_t>& nets)
    : n_(static_cast<std::int32_t>(nets.size())) {
  std::vector<const Waveform*> w;
  w.reserve(nets.size());
  for (std::int32_t net : nets) {
    w.push_back(&sim.waveforms[static_cast<std::size_t>(net)]);
  }
  values_ = pairwise(w, sim.horizon);
}

SimilarityMatrix::SimilarityMatrix(const std::vector<Waveform>& waveforms,
                                   SimTime horizon)
    : n_(static_cast<std::int32_t>(waveforms.size())) {
  std::vector<const Waveform*> w;
  w.reserve(waveforms.size());
  for (const auto& wf : waveforms) w.push_back(&wf);
  values_ = pairwise(w, horizon);
}

}  // namespace lrsizer::sim
