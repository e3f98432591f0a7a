#include "sim/waveform.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace lrsizer::sim {

void Waveform::add_toggle(SimTime t) {
  LRSIZER_ASSERT_MSG(toggles_.empty() || t >= toggles_.back(),
                     "toggles must be appended in time order");
  if (!toggles_.empty() && toggles_.back() == t) {
    // Zero-width glitch: a double toggle at the same instant is a no-op.
    toggles_.pop_back();
    return;
  }
  toggles_.push_back(t);
}

int Waveform::value_at(SimTime t) const {
  // Toggles at times <= t have taken effect.
  const auto k = std::upper_bound(toggles_.begin(), toggles_.end(), t) - toggles_.begin();
  return (initial_ + static_cast<int>(k % 2)) % 2;
}

std::int64_t Waveform::transition_count(SimTime horizon) const {
  return std::lower_bound(toggles_.begin(), toggles_.end(), horizon) - toggles_.begin();
}

double Waveform::similarity(const Waveform& a, const Waveform& b, SimTime horizon) {
  LRSIZER_ASSERT(horizon > 0);
  // Merged sweep over both transition lists; accumulate signed agreement
  // time: +dt where values are equal, -dt where they differ.
  std::size_t ia = 0;
  std::size_t ib = 0;
  int va = a.initial_value();
  int vb = b.initial_value();
  SimTime t = 0;
  std::int64_t agree = 0;  // ∫ f_a f_b dt = (agree time) - (disagree time)
  std::int64_t disagree = 0;
  while (t < horizon) {
    SimTime next = horizon;
    if (ia < a.toggles_.size()) next = std::min(next, a.toggles_[ia]);
    if (ib < b.toggles_.size()) next = std::min(next, b.toggles_[ib]);
    if (next > t) {
      if (va == vb) {
        agree += next - t;
      } else {
        disagree += next - t;
      }
      t = next;
    }
    if (t >= horizon) break;
    if (ia < a.toggles_.size() && a.toggles_[ia] == t) {
      va = 1 - va;
      ++ia;
    }
    if (ib < b.toggles_.size() && b.toggles_[ib] == t) {
      vb = 1 - vb;
      ++ib;
    }
  }
  return static_cast<double>(agree - disagree) / static_cast<double>(horizon);
}

}  // namespace lrsizer::sim
