#include "api/options.hpp"

#include <algorithm>
#include <sstream>

#include "sim/simulator.hpp"

namespace lrsizer::api {

namespace {

/// "tech.min_size must be > 0 (got -1)" — every check reads like this.
template <typename T>
Status invalid(const char* field, const char* constraint, T got) {
  std::ostringstream out;
  out << field << " must be " << constraint << " (got " << got << ")";
  return Status::InvalidArgument(out.str());
}

Status check_tech(const netlist::TechParams& tech) {
  if (tech.gate_unit_res <= 0.0)
    return invalid("tech.gate_unit_res", "> 0", tech.gate_unit_res);
  if (tech.gate_unit_cap <= 0.0)
    return invalid("tech.gate_unit_cap", "> 0", tech.gate_unit_cap);
  if (tech.wire_res_per_um <= 0.0)
    return invalid("tech.wire_res_per_um", "> 0", tech.wire_res_per_um);
  if (tech.wire_cap_per_um <= 0.0)
    return invalid("tech.wire_cap_per_um", "> 0", tech.wire_cap_per_um);
  if (tech.wire_fringe_per_um < 0.0)
    return invalid("tech.wire_fringe_per_um", ">= 0", tech.wire_fringe_per_um);
  if (tech.supply_voltage <= 0.0)
    return invalid("tech.supply_voltage", "> 0", tech.supply_voltage);
  if (tech.frequency <= 0.0) return invalid("tech.frequency", "> 0", tech.frequency);
  if (tech.min_size <= 0.0) return invalid("tech.min_size", "> 0", tech.min_size);
  if (tech.max_size < tech.min_size) {
    std::ostringstream out;
    out << "tech.max_size (" << tech.max_size << ") must be >= tech.min_size ("
        << tech.min_size << "): the size box [L, U] would be empty";
    return Status::InvalidArgument(out.str());
  }
  if (tech.gate_area_per_size <= 0.0)
    return invalid("tech.gate_area_per_size", "> 0", tech.gate_area_per_size);
  if (tech.wire_area_per_size < 0.0)
    return invalid("tech.wire_area_per_size", ">= 0", tech.wire_area_per_size);
  if (tech.driver_res <= 0.0) return invalid("tech.driver_res", "> 0", tech.driver_res);
  if (tech.output_load <= 0.0)
    return invalid("tech.output_load", "> 0", tech.output_load);
  return Status::Ok();
}

Status check_elab(const netlist::ElabOptions& elab) {
  if (elab.min_wire_length <= 0.0)
    return invalid("elab.min_wire_length", "> 0", elab.min_wire_length);
  if (elab.max_wire_length < elab.min_wire_length) {
    std::ostringstream out;
    out << "elab.max_wire_length (" << elab.max_wire_length
        << ") must be >= elab.min_wire_length (" << elab.min_wire_length << ")";
    return Status::InvalidArgument(out.str());
  }
  if (elab.max_star_fanout < 1)
    return invalid("elab.max_star_fanout", ">= 1", elab.max_star_fanout);
  if (elab.segments_per_wire < 1)
    return invalid("elab.segments_per_wire", ">= 1", elab.segments_per_wire);
  return Status::Ok();
}

Status check_ogws(const core::OgwsOptions& ogws) {
  if (ogws.max_iterations < 1)
    return invalid("ogws.max_iterations", ">= 1", ogws.max_iterations);
  if (ogws.gap_tol <= 0.0) return invalid("ogws.gap_tol", "> 0", ogws.gap_tol);
  if (ogws.feas_tol < 0.0) return invalid("ogws.feas_tol", ">= 0", ogws.feas_tol);
  if (ogws.step0 <= 0.0) return invalid("ogws.step0", "> 0", ogws.step0);
  if (ogws.lrs.max_passes < 1)
    return invalid("ogws.lrs.max_passes", ">= 1", ogws.lrs.max_passes);
  if (ogws.lrs.tol <= 0.0) return invalid("ogws.lrs.tol", "> 0", ogws.lrs.tol);
  return Status::Ok();
}

}  // namespace

Status validate_options(const core::FlowOptions& options) {
  if (Status st = check_tech(options.tech); !st.ok()) return st;
  if (Status st = check_elab(options.elab); !st.ok()) return st;
  if (Status st = check_ogws(options.ogws); !st.ok()) return st;

  if (options.num_vectors < 1)
    return invalid("num_vectors", ">= 1", options.num_vectors);
  if (options.sim.vector_period < 1)
    return invalid("sim.vector_period", ">= 1", options.sim.vector_period);
  if (options.sim.gate_delay < 1)
    return invalid("sim.gate_delay", ">= 1", options.sim.gate_delay);
  if (options.sim.gate_delay >= options.sim.vector_period) {
    std::ostringstream out;
    out << "sim.gate_delay (" << options.sim.gate_delay
        << ") must be < sim.vector_period (" << options.sim.vector_period
        << "): a gate's transition must land inside its vector window";
    return Status::InvalidArgument(out.str());
  }
  if (options.channels.max_channel_width < 2)
    return invalid("channels.max_channel_width", ">= 2 (tracks only couple within a channel)",
                   options.channels.max_channel_width);
  if (options.neighbors.pitch_um <= 0.0)
    return invalid("neighbors.pitch_um", "> 0", options.neighbors.pitch_um);
  if (options.neighbors.fringe_per_um < 0.0)
    return invalid("neighbors.fringe_per_um", ">= 0", options.neighbors.fringe_per_um);

  // Written as !(f >= floor) so that NaN is refused too.
  const core::BoundFactors& factors = options.bound_factors;
  if (!(factors.delay >= kMinBoundFactor))
    return invalid("bound_factors.delay", ">= 1e-150 (A0 = delay x initial delay)",
                   factors.delay);
  if (!(factors.power >= kMinBoundFactor))
    return invalid("bound_factors.power", ">= 1e-150 (P0 = power x initial cap)",
                   factors.power);
  if (!(factors.noise >= kMinBoundFactor))
    return invalid("bound_factors.noise", ">= 1e-150 (X0 = noise x initial noise)",
                   factors.noise);
  if (factors.per_net_noise != 0.0 && !(factors.per_net_noise >= kMinBoundFactor))
    return invalid("bound_factors.per_net_noise",
                   "0 (disables per-net bounds) or >= 1e-150", factors.per_net_noise);

  if (options.initial_size <= 0.0)
    return invalid("initial_size", "> 0", options.initial_size);
  if (options.initial_size < options.tech.min_size ||
      options.initial_size > options.tech.max_size) {
    std::ostringstream out;
    out << "initial_size (" << options.initial_size
        << ") must lie inside the tech size box [" << options.tech.min_size << ", "
        << options.tech.max_size << "]";
    return Status::InvalidArgument(out.str());
  }
  return Status::Ok();
}

Status check_sim_rows(const netlist::LogicNetlist& netlist, const core::FlowOptions& options) {
  const std::int64_t nets = std::max<std::int64_t>(netlist.num_gates_logic(), 1);
  const std::int64_t max_vectors =
      sim::max_vectors_within(kMaxSimRowBytes, nets, options.sim.vector_period);
  if (options.num_vectors <= max_vectors) return Status::Ok();
  std::ostringstream out;
  out << "num_vectors (" << options.num_vectors << ") would need more than "
      << (kMaxSimRowBytes >> 20) << " MiB of simulation rows for " << nets
      << " nets at sim.vector_period " << options.sim.vector_period << "; at most "
      << max_vectors << " vectors fit";
  return Status::InvalidArgument(out.str());
}

}  // namespace lrsizer::api
