// Event-driven unit/level-delay logic simulator.
//
// Applies a sequence of input vectors to a LogicNetlist (one vector every
// `vector_period` ticks) and records a Waveform per net. Gate propagation
// uses a transport delay of `gate_delay` ticks, so reconvergent paths create
// realistic glitching — exactly the behavior the similarity metric should
// see. Events that produce no value change are suppressed. With one constant
// delay, gate events are created in time order, so pending events wait in a
// plain FIFO.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/logic_netlist.hpp"
#include "sim/waveform.hpp"

namespace lrsizer::sim {

struct SimOptions {
  SimTime vector_period = 64;  ///< ticks between input vectors
  SimTime gate_delay = 1;      ///< transport delay per gate
};

struct SimResult {
  /// One waveform per logic gate index (nets identified with their driver).
  std::vector<Waveform> waveforms;
  /// T_D: end of the simulated window = num_vectors * vector_period.
  SimTime horizon = 0;
  /// Events applied: every input of every vector after the first, plus
  /// every scheduled gate output, whether or not it changed the net.
  std::int64_t total_events = 0;
};

/// Simulate `vectors` (each sized to the netlist's primary-input count).
/// The netlist is settled to the first vector before t=0, so waveforms
/// start in a consistent state.
SimResult simulate(const netlist::LogicNetlist& netlist,
                   const std::vector<std::vector<int>>& vectors,
                   const SimOptions& options = SimOptions{});

}  // namespace lrsizer::sim
