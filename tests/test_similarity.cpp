// SimilarityMatrix and Miller weights over simulated netlists, and exact
// agreement with the pairwise Waveform::similarity reference.
#include <gtest/gtest.h>

#include "netlist/bench_parser.hpp"
#include "sim/patterns.hpp"
#include "sim/similarity.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;

TEST(SimilarityMatrix, DiagonalIsOne) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = sim::simulate(logic, sim::random_vectors(5, 16, 1));
  const sim::SimilarityMatrix m(result, {0, 1, 2, 3});
  for (std::int32_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(m.at(i, i), 1.0);
}

TEST(SimilarityMatrix, SymmetricAndBounded) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = sim::simulate(logic, sim::random_vectors(5, 32, 2));
  std::vector<std::int32_t> nets;
  for (std::int32_t g = 0; g < logic.num_gates_logic(); ++g) nets.push_back(g);
  const sim::SimilarityMatrix m(result, nets);
  for (std::int32_t a = 0; a < m.size(); ++a) {
    for (std::int32_t b = 0; b < m.size(); ++b) {
      EXPECT_DOUBLE_EQ(m.at(a, b), m.at(b, a));
      EXPECT_GE(m.at(a, b), -1.0);
      EXPECT_LE(m.at(a, b), 1.0);
    }
  }
}

TEST(SimilarityMatrix, MillerWeightComplementsSimilarity) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = sim::simulate(logic, sim::random_vectors(5, 16, 3));
  const sim::SimilarityMatrix m(result, {0, 1, 2});
  // The consuming form hands back the same weights, row-major, bit for bit.
  const std::vector<double> taken =
      sim::SimilarityMatrix(result, {0, 1, 2}).take_miller_weights();
  ASSERT_EQ(taken.size(), 9u);
  for (std::int32_t a = 0; a < 3; ++a) {
    for (std::int32_t b = 0; b < 3; ++b) {
      EXPECT_DOUBLE_EQ(m.miller_weight(a, b), 1.0 - m.at(a, b));
      EXPECT_GE(m.miller_weight(a, b), 0.0);
      EXPECT_LE(m.miller_weight(a, b), 2.0);
      EXPECT_EQ(taken[static_cast<std::size_t>(a * 3 + b)], m.miller_weight(a, b));
    }
  }
}

TEST(SimilarityMatrix, BufferTracksItsInput) {
  // A buffered net and its source switch near-identically (one gate delay
  // apart), so their similarity must be high; an inverted copy must be low.
  const auto logic = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(p)\nOUTPUT(q)\np = BUF(a)\nq = NOT(a)\n");
  sim::SimOptions options;
  options.vector_period = 64;
  options.gate_delay = 1;
  const auto result =
      sim::simulate(logic, sim::random_vectors(1, 64, 7), options);
  const sim::SimilarityMatrix m(result, {0, 1, 2});  // a, p, q
  EXPECT_GT(m.at(0, 1), 0.9);    // buffer ≈ source
  EXPECT_LT(m.at(0, 2), -0.9);   // inverter ≈ anti-source
  EXPECT_LT(m.at(1, 2), -0.9);
}

TEST(SimilarityMatrix, WaveformConstructorMatchesSimResultPath) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = sim::simulate(logic, sim::random_vectors(5, 16, 4));
  const sim::SimilarityMatrix from_result(result, {1, 3, 5});
  const std::vector<sim::Waveform> waves = {result.waveform(1), result.waveform(3),
                                            result.waveform(5)};
  const sim::SimilarityMatrix from_waves(waves, result.horizon);
  for (std::int32_t a = 0; a < 3; ++a) {
    for (std::int32_t b = 0; b < 3; ++b) {
      EXPECT_DOUBLE_EQ(from_result.at(a, b), from_waves.at(a, b));
    }
  }
}

// Seeded waveforms over [0, T + 8): a toggle at each tick with probability
// `density`, plus the edge cases the bitset fill must get right — a toggle at
// 0, at T and past T, an empty toggle list, and both initial values.
std::vector<sim::Waveform> random_waveforms(sim::SimTime horizon, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<sim::Waveform> waves;
  const double densities[] = {0.0, 0.01, 0.1, 0.5};
  for (int k = 0; k < 12; ++k) {
    sim::Waveform w(k % 2);
    const double density = densities[k % 4];
    for (sim::SimTime t = 0; t < horizon + 8; ++t) {
      if (rng.bernoulli(density)) w.add_toggle(t);
    }
    waves.push_back(std::move(w));
  }
  sim::Waveform at_zero(1);
  at_zero.add_toggle(0);
  waves.push_back(at_zero);
  sim::Waveform at_and_past_horizon(0);
  at_and_past_horizon.add_toggle(horizon);
  at_and_past_horizon.add_toggle(horizon + 3);
  waves.push_back(at_and_past_horizon);
  sim::Waveform last_tick(1);
  last_tick.add_toggle(horizon - 1);
  waves.push_back(last_tick);
  waves.emplace_back(0);  // empty toggle list
  waves.emplace_back(1);
  return waves;
}

/// A SimResult whose rows hold `waves` over [0, horizon), written tick by
/// tick from Waveform::value_at.
sim::SimResult rows_of(const std::vector<sim::Waveform>& waves, sim::SimTime horizon) {
  sim::SimResult result;
  result.horizon = horizon;
  result.words_per_row = static_cast<std::size_t>((horizon + 63) / 64);
  result.rows.assign(waves.size() * result.words_per_row, 0);
  for (std::size_t a = 0; a < waves.size(); ++a) {
    for (sim::SimTime t = 0; t < horizon; ++t) {
      if (waves[a].value_at(t) != 0) {
        result.rows[a * result.words_per_row + static_cast<std::size_t>(t / 64)] |=
            std::uint64_t{1} << (t % 64);
      }
    }
  }
  return result;
}

TEST(SimilarityMatrix, MatchesPairwiseWaveformSimilarityExactly) {
  // Horizons on both sides of the 64-tick word boundary, and the default
  // stage-1 window (32 vectors x 64 ticks) and one tick past it. The
  // matrices count with the CPU's native instantiation; the raw pairwise
  // loop runs under each instantiation the CPU has, so the portable count
  // stays tested where SimilarityMatrix uses POPCNT.
  std::vector<sim::BitCount> counts = {sim::BitCount::kPortable};
  if (sim::native_bit_count() == sim::BitCount::kHardware) {
    counts.push_back(sim::BitCount::kHardware);
  }
  const sim::SimTime horizons[] = {1, 63, 64, 65, 2048, 2049};
  std::uint64_t seed = 40;
  for (const sim::SimTime horizon : horizons) {
    SCOPED_TRACE("T = " + std::to_string(horizon));
    const auto waves = random_waveforms(horizon, ++seed);
    const auto n = static_cast<std::int32_t>(waves.size());

    const sim::SimilarityMatrix from_waves(waves, horizon);
    // The SimResult constructor over a subset of the nets, in a shuffled
    // order with one net repeated.
    const sim::SimResult result = rows_of(waves, horizon);
    const std::vector<std::int32_t> nets = {5, 0, n - 1, 12, 7, 13, 5, 14, 2, n - 2, 9};
    const sim::SimilarityMatrix from_result(result, nets);

    for (std::int32_t a = 0; a < n; ++a) {
      for (std::int32_t b = 0; b < n; ++b) {
        EXPECT_EQ(from_waves.at(a, b),
                  sim::Waveform::similarity(waves[static_cast<std::size_t>(a)],
                                            waves[static_cast<std::size_t>(b)], horizon))
            << "waveforms " << a << ", " << b;
      }
    }
    for (std::size_t a = 0; a < nets.size(); ++a) {
      for (std::size_t b = 0; b < nets.size(); ++b) {
        const double expected =
            a == b ? 1.0
                   : sim::Waveform::similarity(waves[static_cast<std::size_t>(nets[a])],
                                               waves[static_cast<std::size_t>(nets[b])],
                                               horizon);
        EXPECT_EQ(from_result.at(static_cast<std::int32_t>(a), static_cast<std::int32_t>(b)),
                  expected)
            << "nets " << nets[a] << ", " << nets[b];
      }
    }

    std::vector<const std::uint64_t*> rows;
    for (std::int32_t a = 0; a < n; ++a) rows.push_back(result.row(a).data());
    for (const sim::BitCount count : counts) {
      SCOPED_TRACE(count == sim::BitCount::kHardware ? "hardware count" : "portable count");
      const std::vector<double> values =
          sim::pairwise_similarities(rows, result.words_per_row, horizon, count);
      ASSERT_EQ(values.size(), static_cast<std::size_t>(n * n));
      for (std::int32_t a = 0; a < n; ++a) {
        for (std::int32_t b = 0; b < n; ++b) {
          EXPECT_EQ(values[static_cast<std::size_t>(a * n + b)], from_waves.at(a, b))
              << "rows " << a << ", " << b;
        }
      }
    }
  }
}

}  // namespace
