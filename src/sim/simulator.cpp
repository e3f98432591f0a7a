#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace lrsizer::sim {

namespace {

/// The bits of a row's last word that lie before the horizon.
std::uint64_t tail_mask(SimTime horizon) {
  const SimTime tail = horizon % kTicksPerWord;
  return tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
}

/// Calls `visit(w, bits)` for each word w of `row`, where bit t % 64 of
/// `bits` is set iff the value at tick t differs from the value at t − 1.
/// Tick 0 never counts as a change, and `last_mask` keeps the last word's
/// changes inside the horizon.
template <class Visit>
void for_each_change_word(const std::uint64_t* row, std::size_t words,
                          std::uint64_t last_mask, const Visit& visit) {
  std::uint64_t carry = row[0] & 1;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t changes = row[w] ^ ((row[w] << 1) | carry);
    carry = row[w] >> 63;
    if (w + 1 == words) changes &= last_mask;
    visit(w, changes);
  }
}

/// Set ticks [lo, hi) of `row`.
void set_ticks(std::uint64_t* row, SimTime lo, SimTime hi) {
  const auto first = static_cast<std::size_t>(lo / kTicksPerWord);
  const auto last = static_cast<std::size_t>((hi - 1) / kTicksPerWord);
  const std::uint64_t from_lo = ~std::uint64_t{0} << (lo % kTicksPerWord);
  const std::uint64_t to_hi = ~std::uint64_t{0} >> (kTicksPerWord - 1 - (hi - 1) % kTicksPerWord);
  if (first == last) {
    row[first] |= from_lo & to_hi;
    return;
  }
  row[first] |= from_lo;
  std::fill(row + first + 1, row + last, ~std::uint64_t{0});
  row[last] |= to_hi;
}

bool inverts(netlist::LogicOp op) {
  return op == netlist::LogicOp::kNot || op == netlist::LogicOp::kNand ||
         op == netlist::LogicOp::kNor || op == netlist::LogicOp::kXnor;
}

}  // namespace

Waveform SimResult::waveform(std::int32_t net) const {
  const std::span<const std::uint64_t> bits = row(net);
  Waveform w(static_cast<int>(bits[0] & 1));
  for_each_change_word(bits.data(), bits.size(), tail_mask(horizon),
                       [&](std::size_t word, std::uint64_t changes) {
                         for (; changes != 0; changes &= changes - 1) {
                           w.add_toggle(static_cast<SimTime>(word) * kTicksPerWord +
                                        std::countr_zero(changes));
                         }
                       });
  return w;
}

SimResult simulate(const netlist::LogicNetlist& netlist,
                   const std::vector<std::vector<int>>& vectors,
                   const SimOptions& options) {
  LRSIZER_ASSERT(netlist.finalized());
  LRSIZER_ASSERT(!vectors.empty());
  LRSIZER_ASSERT(options.vector_period > 0);
  LRSIZER_ASSERT(options.gate_delay > 0);
  LRSIZER_ASSERT(options.gate_delay < options.vector_period);

  const auto& pis = netlist.primary_inputs();
  for (const auto& v : vectors) {
    LRSIZER_ASSERT_MSG(v.size() == pis.size(), "vector width != #primary inputs");
  }

  SimResult result;
  result.horizon = static_cast<SimTime>(vectors.size()) * options.vector_period;
  const auto words =
      static_cast<std::size_t>((result.horizon + kTicksPerWord - 1) / kTicksPerWord);
  result.words_per_row = words;
  result.rows.assign(static_cast<std::size_t>(netlist.num_gates_logic()) * words, 0);
  const std::uint64_t last_mask = tail_mask(result.horizon);
  auto row_of = [&](std::int32_t net) {
    return result.rows.data() + static_cast<std::size_t>(net) * words;
  };

  // Primary input i holds vector k's bit over [k·period, (k+1)·period).
  for (std::size_t i = 0; i < pis.size(); ++i) {
    std::uint64_t* row = row_of(pis[i]);
    for (std::size_t k = 0; k < vectors.size(); ++k) {
      if (vectors[k][i] == 0) continue;
      const SimTime start = static_cast<SimTime>(k) * options.vector_period;
      set_ticks(row, start, start + options.vector_period);
    }
  }
  result.total_events =
      static_cast<std::int64_t>(vectors.size() - 1) * static_cast<std::int64_t>(pis.size());

  // A delay of d ticks is q whole words plus r bits; q < words since
  // d < period <= horizon.
  const auto q = static_cast<std::size_t>(options.gate_delay / kTicksPerWord);
  const auto r = static_cast<int>(options.gate_delay % kTicksPerWord);
  for (std::int32_t g : netlist.topo_order()) {
    const netlist::LogicGate& gate = netlist.gate(g);
    if (gate.op == netlist::LogicOp::kInput) continue;
    std::uint64_t* out = row_of(g);

    // f over the fanins' rows, unshifted: the shift commutes with every
    // bitwise op, so one shift of the result delays all of them.
    const std::uint64_t* first = row_of(gate.fanin[0]);
    std::copy(first, first + words, out);
    for (std::size_t k = 1; k < gate.fanin.size(); ++k) {
      const std::uint64_t* in = row_of(gate.fanin[k]);
      switch (gate.op) {
        case netlist::LogicOp::kAnd:
        case netlist::LogicOp::kNand:
          for (std::size_t w = 0; w < words; ++w) out[w] &= in[w];
          break;
        case netlist::LogicOp::kOr:
        case netlist::LogicOp::kNor:
          for (std::size_t w = 0; w < words; ++w) out[w] |= in[w];
          break;
        case netlist::LogicOp::kXor:
        case netlist::LogicOp::kXnor:
          for (std::size_t w = 0; w < words; ++w) out[w] ^= in[w];
          break;
        default:
          LRSIZER_ASSERT_MSG(false, "single-input op with several fanins");
      }
    }
    if (inverts(gate.op)) {
      for (std::size_t w = 0; w < words; ++w) out[w] = ~out[w];
    }

    // out(t) = f(in(max(t − d, 0))): shift d ticks later, in place from the
    // last word down, filling t < d with the settled value f(in(0)). A
    // word-aligned delay (r == 0) copies whole words, since x >> 64 is
    // undefined.
    const std::uint64_t fill = std::uint64_t{0} - (out[0] & 1);
    if (r == 0) {
      for (std::size_t w = words; w-- > q;) out[w] = out[w - q];
    } else {
      for (std::size_t w = words; w-- > q + 1;) {
        out[w] = (out[w - q] << r) | (out[w - q - 1] >> (kTicksPerWord - r));
      }
      out[q] = (out[0] << r) | (fill >> (kTicksPerWord - r));
    }
    std::fill(out, out + q, fill);
    out[words - 1] &= last_mask;

    // Each output change inside the window is one event.
    for_each_change_word(out, words, last_mask, [&](std::size_t, std::uint64_t changes) {
      result.total_events += popcount64(changes);
    });
  }
  return result;
}

}  // namespace lrsizer::sim
