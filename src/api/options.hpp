// FlowOptions validation.
//
// core::FlowOptions is a plain aggregate that the core flow trusts blindly
// (inconsistent values surface as asserts deep inside derive_bounds or
// run_ogws). The session API validates up front: every stage runs
// validate_options(), which checks every tech/elab/sim/bound/ogws parameter
// and names the offending field in its message. Callers set the fields
// directly and may call it themselves to fail early.
#pragma once

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

}  // namespace lrsizer::api
