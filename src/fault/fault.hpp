// Deterministic fault injection (docs/RELIABILITY.md).
//
// Code that touches the outside world guards its failure paths with named
// fault points:
//
//   if (LRSIZER_FAULT_POINT("cache.write")) { /* behave as if ENOSPC */ }
//
// Disarmed (the default, and the only production state) a fault point costs
// one relaxed atomic load and a never-taken branch — nothing is looked up,
// no string is hashed — so hot paths keep their bench-guarded profile and
// results stay bit-identical. Arming happens explicitly, per process, via
// `lrsizer --fault-inject "point:spec"` or the LRSIZER_FAULT environment
// variable (comma-separated specs); tests call arm()/reset() directly.
//
// Trigger grammar (the part after "point:"):
//
//   always        fire on every hit
//   nth=N         fire exactly on the Nth hit (1-based), then never again
//   every=N       fire on hits N, 2N, 3N, ...
//   p=P[@SEED]    fire each hit with probability P in [0,1], from a seeded
//                 xorshift64 stream (default seed 1) — deterministic for a
//                 given seed and hit sequence
//
// Point names are validated against the known-points list below, so a typo
// in a chaos harness fails loudly instead of silently injecting nothing.
//
// Thread safety: every function is safe to call concurrently; should_fail
// serializes per-process on one mutex, which is fine because armed runs are
// test/chaos runs by definition.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lrsizer::fault {

namespace detail {
extern std::atomic<bool> g_armed;
}  // namespace detail

/// True when at least one fault point is armed (one relaxed load).
inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Decide whether the named point fires on this hit. Only call when armed()
/// — the LRSIZER_FAULT_POINT macro does this — so the disarmed cost stays a
/// single load. Unarmed points return false (their hits are not counted).
bool should_fail(const char* point);

#define LRSIZER_FAULT_POINT(point) \
  (::lrsizer::fault::armed() && ::lrsizer::fault::should_fail(point))

/// Every point name the codebase defines (sorted). arm() rejects names not
/// in this list.
const std::vector<std::string>& known_points();

/// Arm one point from a "point:spec" string (grammar above). Returns false
/// — with the reason in *error, when given — on an unknown point or a
/// malformed trigger; the existing rules are untouched. Re-arming a point
/// replaces its rule and resets its hit/injected counters.
bool arm(const std::string& spec, std::string* error = nullptr);

/// Arm every comma-separated spec in $LRSIZER_FAULT. Returns the number of
/// points armed (0 when the variable is unset or empty), or -1 on the first
/// bad spec (reason in *error; earlier specs stay armed).
int arm_from_env(std::string* error = nullptr);

/// Disarm everything and zero all counters (test isolation).
void reset();

/// Names of the currently armed points (sorted).
std::vector<std::string> armed_points();

/// Faults injected so far at one point (0 for unarmed/unknown points).
/// Monotonic until reset(); the lrsizer_fault_injected_total{point} metric
/// reads this.
std::uint64_t injected_count(const std::string& point);

}  // namespace lrsizer::fault
