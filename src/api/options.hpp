// FlowOptions validation.
//
// core::FlowOptions is a plain aggregate that the core flow trusts blindly
// (inconsistent values surface as asserts deep inside derive_bounds or
// run_ogws). The session API validates up front: every stage runs
// validate_options(), which checks every tech/elab/sim/bound/ogws parameter
// and names the offending field in its message. Callers set the fields
// directly and may call it themselves to fail early.
#pragma once

#include <cstdint>

#include "api/status.hpp"
#include "core/flow.hpp"
#include "netlist/logic_netlist.hpp"

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

/// Stage 1 holds one row of ⌈T/64⌉ words per net (sim::SimResult), so its
/// memory grows with num_vectors. This is the most it may hold.
inline constexpr std::int64_t kMaxSimRowBytes = std::int64_t{256} << 20;

/// kInvalidArgument naming num_vectors when stage 1's rows for `netlist`'s
/// nets at `options.num_vectors` vectors would pass kMaxSimRowBytes; OK
/// otherwise. SizingSession::simulate_and_order checks it before it
/// allocates any of them, and serve::parse_request at admission, so a
/// server refuses such a request before answering `accepted`. `options`
/// must pass validate_options.
Status check_sim_rows(const netlist::LogicNetlist& netlist, const core::FlowOptions& options);

}  // namespace lrsizer::api
