// FlowOptions validation + builder.
//
// core::FlowOptions is a plain aggregate that the core flow trusts blindly
// (inconsistent values surface as asserts deep inside derive_bounds or
// run_ogws). The session API validates up front: validate_options() checks
// every tech/elab/sim/bound/ogws parameter and names the offending field in
// its message; FlowOptionsBuilder is the fluent way to assemble options that
// ends in exactly that check.
#pragma once

#include <cstdint>

#include "api/status.hpp"
#include "core/flow.hpp"

namespace lrsizer::api {

/// Smallest bound factor validate_options accepts (delay, power, noise, and
/// a nonzero per-net noise factor). A factor scales an initial metric into
/// a bound, and OGWS normalizes its multipliers by area / bound, so a tiny
/// factor drives those scales toward overflow before the first dual exists.
/// Sizing c17, c432, c6288 and c7552 stayed finite down to 1e-280 for every
/// factor and broke between 1e-285 (per-net noise) and 1e-293 (delay), with
/// an LRS assert that aborts the process or a non-finite dual. 1e-150 keeps
/// over 100 orders of magnitude of headroom above that edge and lies far
/// below any factor a real client sends (0.01-10).
inline constexpr double kMinBoundFactor = 1e-150;

/// Full up-front consistency check of a FlowOptions bundle. Returns OK for
/// everything the flow can actually run; otherwise kInvalidArgument with a
/// message naming the field, the offending value, and the constraint.
Status validate_options(const core::FlowOptions& options);

/// Fluent assembly of a validated core::FlowOptions. Every setter returns
/// *this; build() runs validate_options() and only writes `out` on success.
///
///   core::FlowOptions options;
///   api::Status st = api::FlowOptionsBuilder()
///                        .vectors(64)
///                        .noise_bound(0.12)
///                        .build(options);
class FlowOptionsBuilder {
 public:
  FlowOptionsBuilder() = default;
  /// Start from an existing bundle instead of the defaults.
  explicit FlowOptionsBuilder(core::FlowOptions base) : options_(std::move(base)) {}

  FlowOptionsBuilder& tech(const netlist::TechParams& tech) {
    options_.tech = tech;
    return *this;
  }
  FlowOptionsBuilder& elab(const netlist::ElabOptions& elab) {
    options_.elab = elab;
    return *this;
  }
  FlowOptionsBuilder& sim(const sim::SimOptions& sim) {
    options_.sim = sim;
    return *this;
  }
  FlowOptionsBuilder& vectors(std::int32_t num_vectors) {
    options_.num_vectors = num_vectors;
    return *this;
  }
  FlowOptionsBuilder& pattern_seed(std::uint64_t seed) {
    options_.pattern_seed = seed;
    return *this;
  }
  FlowOptionsBuilder& channels(const layout::ChannelOptions& channels) {
    options_.channels = channels;
    return *this;
  }
  FlowOptionsBuilder& neighbors(const layout::NeighborOptions& neighbors) {
    options_.neighbors = neighbors;
    return *this;
  }
  FlowOptionsBuilder& use_woss(bool on) {
    options_.use_woss = on;
    return *this;
  }
  FlowOptionsBuilder& bound_factors(const core::BoundFactors& factors) {
    options_.bound_factors = factors;
    return *this;
  }
  FlowOptionsBuilder& delay_bound(double factor) {
    options_.bound_factors.delay = factor;
    return *this;
  }
  FlowOptionsBuilder& power_bound(double factor) {
    options_.bound_factors.power = factor;
    return *this;
  }
  FlowOptionsBuilder& noise_bound(double factor) {
    options_.bound_factors.noise = factor;
    return *this;
  }
  FlowOptionsBuilder& per_net_noise_bound(double factor) {
    options_.bound_factors.per_net_noise = factor;
    return *this;
  }
  FlowOptionsBuilder& ogws(const core::OgwsOptions& ogws) {
    options_.ogws = ogws;
    return *this;
  }
  /// OGWS iteration cap (shorthand for rebuilding the whole ogws bundle —
  /// the one solver knob remote jobs commonly tweak; serve/protocol.cpp).
  FlowOptionsBuilder& max_iterations(int iterations) {
    options_.ogws.max_iterations = iterations;
    return *this;
  }
  FlowOptionsBuilder& initial_size(double size) {
    options_.initial_size = size;
    return *this;
  }
  /// LRS sweep strategy (worklist = the default, frontier-driven incremental
  /// sweeps; dense = the paper-exact Figure-8 reference, tolerance-equivalent
  /// to worklist but not bit-identical — see docs/ARCHITECTURE.md §Worklist
  /// LRS).
  FlowOptionsBuilder& sweep_mode(core::SweepMode mode) {
    options_.ogws.lrs.sweep = mode;
    return *this;
  }

  /// Current (possibly invalid) state, for inspection.
  const core::FlowOptions& peek() const { return options_; }

  /// Validate and, on success, write the assembled options into `out`.
  Status build(core::FlowOptions& out) const {
    Status status = validate_options(options_);
    if (status.ok()) out = options_;
    return status;
  }

 private:
  core::FlowOptions options_;
};

}  // namespace lrsizer::api
