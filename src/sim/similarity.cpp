#include "sim/similarity.hpp"

#include <span>
#include <utility>

#include "util/assert.hpp"

namespace lrsizer::sim {

namespace {

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

/// The portable count: popcount64's SWAR sequence, for any CPU.
struct PortableCount {
  static int count(std::uint64_t word) { return popcount64(word); }
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LRSIZER_HARDWARE_POPCOUNT 1
/// The hardware count: one POPCNT instruction once inlined into a function
/// compiled for it (the default x86-64 target has no such instruction).
struct HardwareCount {
  [[gnu::always_inline]] static int count(std::uint64_t word) {
    return __builtin_popcountll(word);
  }
};
#endif

/// Pairwise similarities, word-parallel: with every signal a row of bits
/// over [0, T) (zero past T), the ticks where two disagree are
/// popcount(a ^ b), and similarity = (T − 2·disagree) / T — the same two
/// integers the merged toggle sweep of Waveform::similarity accumulates, so
/// the same double whichever Count counts them.
template <class Count>
[[gnu::always_inline]] inline std::vector<double> pairwise_loop(
    std::span<const std::uint64_t* const> rows, std::size_t words, SimTime horizon) {
  LRSIZER_ASSERT(horizon > 0);
  const auto n = rows.size();
  std::vector<double> values(n * n, 1.0);
  for (std::size_t a = 0; a < n; ++a) {
    const std::uint64_t* ra = rows[a];
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::uint64_t* rb = rows[b];
      std::int64_t disagree = 0;
      for (std::size_t k = 0; k < words; ++k) disagree += Count::count(ra[k] ^ rb[k]);
      const double s =
          static_cast<double>(horizon - 2 * disagree) / static_cast<double>(horizon);
      values[a * n + b] = s;
      values[b * n + a] = s;
    }
  }
  return values;
}

#ifdef LRSIZER_HARDWARE_POPCOUNT
/// The same loop compiled for CPUs with POPCNT.
[[gnu::target("popcnt")]] std::vector<double> pairwise_hardware(
    std::span<const std::uint64_t* const> rows, std::size_t words, SimTime horizon) {
  return pairwise_loop<HardwareCount>(rows, words, horizon);
}
#endif

}  // namespace

BitCount native_bit_count() {
#ifdef LRSIZER_HARDWARE_POPCOUNT
  static const BitCount native =
      __builtin_cpu_supports("popcnt") ? BitCount::kHardware : BitCount::kPortable;
  return native;
#else
  return BitCount::kPortable;
#endif
}

std::vector<double> pairwise_similarities(std::span<const std::uint64_t* const> rows,
                                          std::size_t words, SimTime horizon,
                                          BitCount count) {
#ifdef LRSIZER_HARDWARE_POPCOUNT
  if (count == BitCount::kHardware) {
    LRSIZER_ASSERT_MSG(native_bit_count() == BitCount::kHardware,
                       "this CPU has no POPCNT instruction");
    return pairwise_hardware(rows, words, horizon);
  }
#else
  LRSIZER_ASSERT_MSG(count == BitCount::kPortable, "hardware popcount is x86-64 only");
#endif
  return pairwise_loop<PortableCount>(rows, words, horizon);
}

SimilarityMatrix::SimilarityMatrix(const SimResult& sim,
                                   const std::vector<std::int32_t>& nets)
    : n_(static_cast<std::int32_t>(nets.size())) {
  std::vector<const std::uint64_t*> rows;
  rows.reserve(nets.size());
  for (std::int32_t net : nets) rows.push_back(sim.row(net).data());
  values_ = pairwise_similarities(rows, sim.words_per_row, sim.horizon, native_bit_count());
}

SimilarityMatrix::SimilarityMatrix(const std::vector<Waveform>& waveforms,
                                   SimTime horizon)
    : n_(static_cast<std::int32_t>(waveforms.size())) {
  LRSIZER_ASSERT(horizon > 0);
  const auto words = static_cast<std::size_t>((horizon + kTicksPerWord - 1) / kTicksPerWord);
  std::vector<std::uint64_t> bits(waveforms.size() * words);
  std::vector<const std::uint64_t*> rows;
  rows.reserve(waveforms.size());
  for (std::size_t a = 0; a < waveforms.size(); ++a) {
    fill_bits(waveforms[a], horizon, std::span(bits).subspan(a * words, words));
    rows.push_back(bits.data() + a * words);
  }
  values_ = pairwise_similarities(rows, words, horizon, native_bit_count());
}

std::vector<double> SimilarityMatrix::take_miller_weights() && {
  for (double& value : values_) value = 1.0 - value;
  return std::move(values_);
}

}  // namespace lrsizer::sim
