#include "api/session.hpp"

#include <algorithm>
#include <new>
#include <sstream>
#include <string>
#include <utility>

#include "api/options.hpp"
#include "fault/fault.hpp"
#include "layout/ordering.hpp"
#include "obs/trace.hpp"
#include "sim/patterns.hpp"
#include "sim/similarity.hpp"
#include "util/assert.hpp"
#include "util/memtrack.hpp"
#include "util/timer.hpp"

namespace lrsizer::api {

SizingSession::SizingSession(netlist::LogicNetlist netlist, core::FlowOptions options)
    : netlist_(std::move(netlist)), options_(std::move(options)) {}

SizingSession::~SizingSession() = default;

const char* SizingSession::stage_name(Stage stage) {
  switch (stage) {
    case Stage::kElaborate: return "elaborate";
    case Stage::kSimulateAndOrder: return "simulate_and_order";
    case Stage::kDeriveBounds: return "derive_bounds";
    case Stage::kSize: return "size";
    case Stage::kDone: return "done";
  }
  return "?";
}

Status SizingSession::begin_stage(Stage expected, const char* name) {
  if (next_ == Stage::kDone) {
    return Status::FailedPrecondition(
        std::string(name) +
        "() called on a finished session; SizingSession is one-shot — build a "
        "new session (optionally warm_start_from() this result) to re-size");
  }
  if (next_ != expected) {
    return Status::FailedPrecondition(std::string(name) +
                                      "() called out of order: the next stage is " +
                                      stage_name(next_) + "()");
  }
  if (Status st = validate_options(options_); !st.ok()) return st;
  if (stop_.stop_requested()) {
    cancelled_ = true;
    return Status::Cancelled(std::string("cancelled before ") + name + "()");
  }
  return Status::Ok();
}

Status SizingSession::warm_start(WarmSeed seed) {
  if (next_ == Stage::kDone) {
    return Status::FailedPrecondition("warm_start() after size() has no effect");
  }
  if (seed_.has_value()) {
    return Status::FailedPrecondition("a warm start is already configured");
  }
  if (seed.empty()) {
    return Status::InvalidArgument(
        "warm_start() got neither size entries nor multipliers");
  }
  seed_ = std::move(seed);
  return Status::Ok();
}

Status SizingSession::warm_start_from(const core::FlowResult& prior) {
  WarmSeed seed;
  seed.multipliers = prior.ogws.warm;
  const netlist::Circuit& circuit = prior.circuit;  // carries the final sizes
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    seed.sizes.emplace_back(v, circuit.size(v));
  }
  return warm_start(std::move(seed));
}

Status SizingSession::elaborate() {
  if (Status st = begin_stage(Stage::kElaborate, "elaborate"); !st.ok()) return st;
  if (!netlist_.finalized()) {
    return Status::InvalidArgument(
        "netlist is not finalized — call LogicNetlist::finalize() (or parse a "
        "complete .bench) before sizing");
  }
  obs::ScopedSpan span(trace_, "elaborate", "session");
  if (LRSIZER_FAULT_POINT("session.alloc")) {
    // Elaboration makes the session's big allocation (the RC circuit); this
    // is where a 10^6-node job would really see bad_alloc. runtime::run_job
    // catches it and turns the job into a failed outcome.
    throw std::bad_alloc();
  }
  elab_ = netlist::elaborate(netlist_, options_.tech, options_.elab);
  span.arg("nodes", static_cast<double>(elab_->circuit.num_nodes()));
  span.arg("edges", static_cast<double>(elab_->circuit.num_edges()));
  next_ = Stage::kSimulateAndOrder;
  return Status::Ok();
}

Status SizingSession::simulate_and_order() {
  if (Status st = begin_stage(Stage::kSimulateAndOrder, "simulate_and_order");
      !st.ok()) {
    return st;
  }
  if (Status st = check_sim_rows(netlist_, options_); !st.ok()) return st;

  const netlist::Circuit& circuit = elab_->circuit;
  util::WallTimer stage1_timer;
  obs::ScopedSpan span(trace_, "simulate_and_order", "session");

  const auto vectors = sim::random_vectors(
      static_cast<std::int32_t>(netlist_.primary_inputs().size()),
      options_.num_vectors, options_.pattern_seed);
  const sim::SimResult simulated = sim::simulate(netlist_, vectors, options_.sim);

  layout::ChannelAssignment channels = layout::assign_channels(
      circuit, elab_->net_of_node, netlist_, options_.channels);

  double cost_initial = 0.0;
  double cost_final = 0.0;
  // Miller weight of each wire to its successor in its channel's final
  // order, read from the channel's WOSS weight matrix.
  std::vector<double> successor_miller(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  std::vector<std::vector<netlist::NodeId>> orders;
  orders.reserve(channels.channels.size());
  for (const auto& tracks : channels.channels) {
    // Per-channel similarity matrix over the wires' nets, turned in place
    // into the channel's WOSS weight matrix.
    std::vector<std::int32_t> nets;
    nets.reserve(tracks.size());
    for (netlist::NodeId w : tracks) {
      nets.push_back(elab_->net_of_node[static_cast<std::size_t>(w)]);
    }
    sim::SimilarityMatrix sim_matrix(simulated, nets);
    const std::int32_t n = sim_matrix.size();
    const layout::DenseWeights view(n, std::move(sim_matrix).take_miller_weights());

    std::vector<std::int32_t> identity(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i) identity[static_cast<std::size_t>(i)] = i;
    cost_initial += layout::ordering_cost(view, identity);

    std::vector<std::int32_t> order =
        options_.use_woss ? layout::woss_ordering(view) : identity;
    cost_final += layout::ordering_cost(view, order);

    std::vector<netlist::NodeId> track_order(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < track_order.size(); ++i) {
      track_order[i] = tracks[static_cast<std::size_t>(order[i])];
      if (i > 0) {
        successor_miller[static_cast<std::size_t>(track_order[i - 1])] =
            view.at(order[i - 1], order[i]);
      }
    }
    orders.push_back(std::move(track_order));
  }

  // Miller weights for the final adjacency (constants folded into ĉ_ij).
  // build_coupling_set pairs each track with its successor, and similarity
  // is symmetric in exact integers, so the channel matrix holds the very
  // double a two-net matrix of the pair would compute.
  layout::MillerFn miller;
  if (options_.neighbors.fold_miller) {
    miller = [&](netlist::NodeId a, netlist::NodeId) {
      return successor_miller[static_cast<std::size_t>(a)];
    };
  }
  coupling_ = layout::build_coupling_set(circuit, orders, options_.neighbors, miller);

  ordering_cost_initial_ = cost_initial;
  ordering_cost_woss_ = cost_final;
  stage1_seconds_ = stage1_timer.seconds();
  span.arg("channels", static_cast<double>(channels.channels.size()));
  span.arg("pairs", static_cast<double>(coupling_->pairs().size()));
  next_ = Stage::kDeriveBounds;
  return Status::Ok();
}

Status SizingSession::derive_bounds() {
  if (Status st = begin_stage(Stage::kDeriveBounds, "derive_bounds"); !st.ok()) {
    return st;
  }
  netlist::Circuit& circuit = elab_->circuit;
  util::WallTimer timer;
  obs::ScopedSpan span(trace_, "derive_bounds", "session");
  circuit.set_uniform_size(options_.initial_size);
  init_metrics_ = timing::compute_metrics(circuit, *coupling_, circuit.sizes(),
                                          options_.ogws.lrs.mode);
  bounds_ = core::derive_bounds(circuit, *coupling_, circuit.sizes(),
                                options_.ogws.lrs.mode, options_.bound_factors);
  stage2_seconds_ = timer.seconds();
  if (bounds_.delay_s <= 0.0 || bounds_.cap_f <= 0.0 || bounds_.noise_f <= 0.0) {
    std::ostringstream out;
    out << "derived bounds are degenerate (A0 = " << bounds_.delay_s
        << " s, P0 = " << bounds_.cap_f << " F, X0 = " << bounds_.noise_f
        << " F) — the initial circuit has a zero metric; check the channel/"
           "coupling options and bound factors";
    return Status::InvalidArgument(out.str());
  }
  next_ = Stage::kSize;
  return Status::Ok();
}

Status SizingSession::size() {
  if (Status st = begin_stage(Stage::kSize, "size"); !st.ok()) return st;
  netlist::Circuit& circuit = elab_->circuit;

  // Materialize the warm-start seed against the now-known circuit. The
  // multiplier lengths are checked first: they pin down the circuit shape,
  // so a seed from another circuit is named as such.
  std::optional<core::OgwsWarmStart> warm;
  if (seed_.has_value()) {
    const auto mismatch = [](const char* what, std::size_t got, const char* unit,
                             std::int64_t want) {
      std::ostringstream out;
      out << "warm-start " << what << " carry " << got
          << " entries but the elaborated circuit has " << want << " " << unit
          << " — was the seed produced from the same netlist and elaboration "
             "options?";
      return Status::InvalidArgument(out.str());
    };
    const core::OgwsWarmStart& m = seed_->multipliers;
    if (!m.lambda.empty() &&
        m.lambda.size() != static_cast<std::size_t>(circuit.num_edges())) {
      return mismatch("multipliers", m.lambda.size(), "edges", circuit.num_edges());
    }
    if (!m.gamma_net.empty() &&
        m.gamma_net.size() != static_cast<std::size_t>(circuit.num_nodes())) {
      return mismatch("per-net multipliers", m.gamma_net.size(), "nodes",
                      circuit.num_nodes());
    }
    std::vector<double> sizes = circuit.sizes();
    for (const auto& [node, size] : seed_->sizes) {
      if (node < circuit.first_component() || node >= circuit.end_component()) {
        std::ostringstream out;
        out << "warm-start size entry names node " << node
            << ", outside the elaborated circuit's component range ["
            << circuit.first_component() << ", " << circuit.end_component() << ")";
        return Status::InvalidArgument(out.str());
      }
      if (!(size > 0.0)) {
        std::ostringstream out;
        out << "warm-start size for node " << node << " must be > 0 (got " << size
            << ")";
        return Status::InvalidArgument(out.str());
      }
      sizes[static_cast<std::size_t>(node)] =
          std::clamp(size, circuit.lower_bound(node), circuit.upper_bound(node));
    }
    warm.emplace(std::move(seed_->multipliers));
    warm->sizes = std::move(sizes);
    seed_.reset();
  }

  obs::ScopedSpan span(trace_, "size", "session");
  core::OgwsControl control;
  control.observer = observer_;
  control.stop = stop_;
  control.capture_warm_start = capture_warm_start_;
  control.trace = trace_;
  if (warm.has_value()) control.warm_start = &*warm;

  util::WallTimer stage2_timer;
  core::OgwsResult ogws =
      core::run_ogws(circuit, *coupling_, bounds_, options_.ogws, control);
  span.arg("iterations", static_cast<double>(ogws.iterations));
  span.arg("converged", ogws.converged ? 1.0 : 0.0);
  span.arg("seeded", warm.has_value() && warm->seeds_multipliers() ? 1.0 : 0.0);
  span.arg("infeasible", ogws.proved_infeasible ? 1.0 : 0.0);
  circuit.mutable_sizes() = ogws.sizes;
  const timing::Metrics final_metrics = timing::compute_metrics(
      circuit, *coupling_, circuit.sizes(), options_.ogws.lrs.mode);
  stage2_seconds_ += stage2_timer.seconds();

  core::FlowResult result{std::move(elab_->circuit),
                          std::move(*coupling_),
                          bounds_,
                          init_metrics_,
                          final_metrics,
                          std::move(ogws),
                          ordering_cost_initial_,
                          ordering_cost_woss_,
                          stage1_seconds_,
                          stage2_seconds_,
                          0,
                          {}};
  result.net_of_node = std::move(elab_->net_of_node);

  result.memory_bytes = util::kMemoryBaseBytes + result.circuit.memory_bytes() +
                        result.coupling.memory_bytes() + result.ogws.workspace_bytes;

  result_ = std::move(result);
  elab_.reset();
  coupling_.reset();
  next_ = Stage::kDone;
  if (result_->ogws.cancelled) {
    cancelled_ = true;
    return Status::Cancelled("sizing cancelled after " +
                             std::to_string(result_->ogws.iterations) +
                             " iteration(s); partial result available");
  }
  return Status::Ok();
}

Status SizingSession::run_all() {
  while (next_ != Stage::kDone) {
    Status status;
    switch (next_) {
      case Stage::kElaborate: status = elaborate(); break;
      case Stage::kSimulateAndOrder: status = simulate_and_order(); break;
      case Stage::kDeriveBounds: status = derive_bounds(); break;
      case Stage::kSize: status = size(); break;
      case Stage::kDone: break;
    }
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

const core::FlowResult& SizingSession::result() const {
  LRSIZER_ASSERT_MSG(result_.has_value(),
                     "SizingSession::result() before size() produced one");
  return *result_;
}

core::FlowResult SizingSession::take_result() {
  LRSIZER_ASSERT_MSG(result_.has_value(),
                     "SizingSession::take_result() before size() produced one");
  core::FlowResult out = std::move(*result_);
  result_.reset();
  return out;
}

core::FlowSummary SizingSession::summary() const {
  return core::summarize_flow(result());
}

netlist::LogicNetlist SizingSession::release_netlist() {
  return std::move(netlist_);
}

}  // namespace lrsizer::api
