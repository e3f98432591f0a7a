// TILOS-style greedy sensitivity sizer (Fishburn & Dunlop's classic
// heuristic, the standard pre-LR baseline).
//
// Starting from minimum sizes, repeatedly bump the size of the component on
// the critical path with the best delay-reduction-per-area-increase until
// the delay bound is met (or no move helps). Exact sensitivities: every
// candidate bump is evaluated with a full load + arrival pass, so the
// comparison against OGWS is about the *search strategy*, not model error.
//
// This baseline is delay-only — exactly the class of sizers the paper
// extends — so the benches report the noise/power it ends up with.
#pragma once

#include <vector>

#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"

namespace lrsizer::core {

struct TilosOptions {
  double bump = 1.3;      ///< multiplicative size step per accepted move
  int max_moves = 20000;  ///< hard stop
};

struct TilosResult {
  std::vector<double> sizes;
  bool met_bound = false;
  int moves = 0;
  double delay_s = 0.0;
  double area_um2 = 0.0;
};

TilosResult run_tilos(const netlist::Circuit& circuit,
                      const layout::CouplingSet& coupling, double delay_bound_s,
                      const TilosOptions& options = TilosOptions{});

}  // namespace lrsizer::core
