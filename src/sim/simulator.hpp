// Levelized word-parallel unit/level-delay logic simulator.
//
// Applies a sequence of input vectors to a LogicNetlist (one vector every
// `vector_period` ticks) and records each net's value over the window
// [0, T) as one row of bits, one tick per bit. Gate propagation uses a
// transport delay of `gate_delay` ticks, so reconvergent paths create
// realistic glitching — exactly the behavior the similarity metric should
// see.
//
// Under a transport delay d, a gate's output is out(t) = f(in(max(t − d, 0))):
// the netlist is settled to the first vector before t = 0, so every value at
// t < 0 is the settled one. Gates are therefore evaluated once each, in
// topological order, a whole row at a time: the gate's op combines its
// fanins' rows with one word op per fanin, and the combined row is shifted
// d ticks later, its vacated bits filled with the settled value. The rows
// are the event-driven waveforms on [0, T) bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/logic_netlist.hpp"
#include "sim/waveform.hpp"

namespace lrsizer::sim {

struct SimOptions {
  SimTime vector_period = 64;  ///< ticks between input vectors
  SimTime gate_delay = 1;      ///< transport delay per gate
};

/// Ticks per row word: bit t % 64 of word t / 64 holds tick t.
inline constexpr SimTime kTicksPerWord = 64;

/// Set bits of `x`. Portable SWAR arithmetic: a build without a popcount
/// instruction would turn std::popcount into a libgcc call per word.
inline int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

struct SimResult {
  /// T_D: end of the simulated window = num_vectors * vector_period.
  SimTime horizon = 0;
  /// ⌈horizon / 64⌉: the words in one net's row.
  std::size_t words_per_row = 0;
  /// One row per logic gate index (nets identified with their driver), net
  /// g at [g * words_per_row, (g + 1) * words_per_row). Bits at and past
  /// the horizon are 0.
  std::vector<std::uint64_t> rows;
  /// Events at t < horizon: every input of every vector after the first,
  /// whether or not it changed the net, plus every gate output change.
  std::int64_t total_events = 0;

  std::int32_t num_nets() const {
    return words_per_row == 0 ? 0 : static_cast<std::int32_t>(rows.size() / words_per_row);
  }

  std::span<const std::uint64_t> row(std::int32_t net) const {
    return {rows.data() + static_cast<std::size_t>(net) * words_per_row, words_per_row};
  }

  /// Net `net`'s row as a toggle-list waveform: its value at t = 0 and each
  /// tick in [1, horizon) where the value changes.
  Waveform waveform(std::int32_t net) const;
};

/// The most vectors of `period` ticks whose rows for `nets` nets fit in
/// `bytes`: nets × ⌈T/64⌉ words of 8 bytes, counted without forming
/// T = vectors × period, which a request's vector count could overflow.
inline std::int64_t max_vectors_within(std::int64_t bytes, std::int64_t nets,
                                       SimTime period) {
  return bytes / (nets * std::int64_t{sizeof(std::uint64_t)}) * kTicksPerWord / period;
}

/// Simulate `vectors` (each sized to the netlist's primary-input count).
/// The netlist is settled to the first vector before t=0, so waveforms
/// start in a consistent state.
SimResult simulate(const netlist::LogicNetlist& netlist,
                   const std::vector<std::vector<int>>& vectors,
                   const SimOptions& options = SimOptions{});

}  // namespace lrsizer::sim
