#include "core/flow.hpp"

namespace lrsizer::core {

FlowSummary summarize_flow(const FlowResult& result) {
  FlowSummary s;
  s.num_gates = result.circuit.num_gates();
  s.num_wires = result.circuit.num_wires();
  s.init_metrics = result.init_metrics;
  s.final_metrics = result.final_metrics;
  s.bound_delay_s = result.bounds.delay_s;
  s.bound_cap_f = result.bounds.cap_f;
  s.bound_noise_f = result.bounds.noise_f;
  s.converged = result.ogws.converged;
  s.cancelled = result.ogws.cancelled;
  s.iterations = result.ogws.iterations;
  s.area_um2 = result.ogws.area;
  s.dual = result.ogws.dual;
  s.rel_gap = result.ogws.rel_gap;
  s.max_violation = result.ogws.max_violation;
  s.ordering_cost_initial = result.ordering_cost_initial;
  s.ordering_cost_woss = result.ordering_cost_woss;
  s.stage1_seconds = result.stage1_seconds;
  s.stage2_seconds = result.stage2_seconds;
  s.memory_bytes = result.memory_bytes;
  return s;
}

}  // namespace lrsizer::core
