// The end-to-end two-stage flow (paper §1):
//
//   stage 0  physical elaboration  (logic netlist -> circuit graph)
//   stage 1  logic simulation -> switching similarity -> WOSS track
//            ordering per channel -> coupling pairs N(i)/I(i)
//   stage 2  bounds derivation -> OGWS (LR sizing)
//
// This header holds the flow's option, result and summary types. The flow
// itself runs in api::SizingSession (api/session.hpp), stage by stage or
// through run_all(), with progress observation, cooperative cancellation
// and warm-starting.
#pragma once

#include <cstdint>
#include <string>

#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/channels.hpp"
#include "layout/neighbors.hpp"
#include "netlist/elaborator.hpp"
#include "sim/simulator.hpp"
#include "timing/metrics.hpp"

namespace lrsizer::core {

struct FlowOptions {
  netlist::TechParams tech;
  netlist::ElabOptions elab;
  sim::SimOptions sim;
  std::int32_t num_vectors = 32;
  std::uint64_t pattern_seed = 7;
  layout::ChannelOptions channels;
  layout::NeighborOptions neighbors;
  /// Stage 1 on/off: off keeps the initial (shuffled) track order.
  bool use_woss = true;
  BoundFactors bound_factors;
  OgwsOptions ogws;
  /// Initial component size (the paper's Table 1 "Init" point).
  double initial_size = 1.0;
  /// Ignored: every job sizes serially (docs/ARCHITECTURE.md §Concurrency).
  /// Kept only because perfbench/driver.cpp still assigns it; it goes
  /// together with that line in the next benchmark change.
  int threads = 1;
};

struct FlowResult {
  netlist::Circuit circuit;        ///< sizes = final solution
  layout::CouplingSet coupling;
  Bounds bounds;
  timing::Metrics init_metrics;
  timing::Metrics final_metrics;
  OgwsResult ogws;
  /// Effective-loading cost Σ(1 − similarity) of adjacent tracks before and
  /// after WOSS (stage 1's own objective).
  double ordering_cost_initial = 0.0;
  double ordering_cost_woss = 0.0;
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
  /// Structure bytes + fixed base (Table 1 "mem", Figure 10a).
  std::size_t memory_bytes = 0;
  /// Logic-netlist gate index driving each circuit node (elaborator's
  /// net_of_node); lets serializers name sized components after their nets.
  std::vector<std::int32_t> net_of_node;
};

/// Flat, numbers-only snapshot of a FlowResult — the serialization hook the
/// runtime layer (runtime/json) and CLI reports consume. Deliberately free
/// of heavyweight members (circuit, coupling, history) so it can be copied
/// and aggregated per batch job.
struct FlowSummary {
  std::int32_t num_gates = 0;
  std::int32_t num_wires = 0;
  timing::Metrics init_metrics;
  timing::Metrics final_metrics;
  double bound_delay_s = 0.0;
  double bound_cap_f = 0.0;
  double bound_noise_f = 0.0;
  bool converged = false;
  /// The sizing stage was interrupted by cooperative cancellation; the
  /// final metrics describe the best (partial) iterate found before that.
  bool cancelled = false;
  int iterations = 0;
  double area_um2 = 0.0;
  double dual = 0.0;
  double rel_gap = 0.0;  ///< signed, as OgwsResult::rel_gap
  double max_violation = 0.0;
  double ordering_cost_initial = 0.0;
  double ordering_cost_woss = 0.0;
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
  std::size_t memory_bytes = 0;
};

FlowSummary summarize_flow(const FlowResult& result);

}  // namespace lrsizer::core
