// Binary signal waveforms f(i,t) ∈ {-1, +1} (paper §3.2).
//
// A waveform is an initial logic value plus a sorted list of toggle times.
// The similarity integral (1/T)∫ f_i f_j dt is computed exactly by a merged
// sweep over the two transition lists — no time discretization.
#pragma once

#include <cstdint>
#include <vector>

namespace lrsizer::sim {

/// Simulation time in arbitrary integer ticks (one input vector per
/// `period` ticks; gate delays are small integers).
using SimTime = std::int64_t;

class Waveform {
 public:
  explicit Waveform(int initial_value = 0) : initial_(initial_value) {}

  int initial_value() const { return initial_; }
  void set_initial_value(int v) { initial_ = v; }

  /// Record a toggle at time t. Times must be appended non-decreasing; two
  /// toggles at the same time cancel (glitch suppression at zero width).
  void add_toggle(SimTime t);

  const std::vector<SimTime>& toggles() const { return toggles_; }

  /// Logic value (0/1) at time t (value holds in [toggle_k, toggle_{k+1})).
  int value_at(SimTime t) const;

  /// Number of transitions in [0, horizon).
  std::int64_t transition_count(SimTime horizon) const;

  /// Paper §3.2: similarity(a,b) = (1/T)∫₀ᵀ f_a(t)·f_b(t) dt with f = ±1.
  /// Result lies in [-1, 1].
  static double similarity(const Waveform& a, const Waveform& b, SimTime horizon);

 private:
  int initial_;
  std::vector<SimTime> toggles_;
};

}  // namespace lrsizer::sim
