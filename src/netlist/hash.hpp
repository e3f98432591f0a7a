// Structural hashing of logic netlists — the circuit half of the batch-level
// result-cache key (runtime/cache.hpp, docs/SERVING.md §Cache semantics).
//
// Two netlists hash equal iff they are structurally identical: same gates in
// the same definition order with the same names, ops, fanin lists and
// primary-output marks. That is exactly the input identity the flow is
// deterministic over, so (netlist_hash, canonical options) keys a unique
// FlowResult.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lrsizer::netlist {

class LogicNetlist;

/// 64-bit FNV-1a offset/prime, exposed so other key components (canonical
/// option strings) hash with the same function.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over raw bytes, continuing from `h` (seed with kFnvOffset).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset);

// The byte-level mixing netlist_hash and cone_hashes (cone_hash.hpp) share:
// FNV-1a steps with a fixed little-endian integer encoding, so both hashes
// are platform-stable.

inline std::uint64_t mix_byte(std::uint64_t h, unsigned char b) {
  return (h ^ b) * kFnvPrime;
}

inline std::uint64_t mix_i32(std::uint64_t h, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  h = mix_byte(h, static_cast<unsigned char>(u & 0xff));
  h = mix_byte(h, static_cast<unsigned char>((u >> 8) & 0xff));
  h = mix_byte(h, static_cast<unsigned char>((u >> 16) & 0xff));
  return mix_byte(h, static_cast<unsigned char>((u >> 24) & 0xff));
}

/// Length-prefixed, so adjacent strings cannot run together.
inline std::uint64_t mix_string(std::uint64_t h, std::string_view s) {
  h = mix_i32(h, static_cast<std::int32_t>(s.size()));
  for (const char c : s) h = mix_byte(h, static_cast<unsigned char>(c));
  return h;
}

/// Structural hash of a logic netlist (names, ops, fanins, output marks).
/// Stable across processes and platforms; independent of finalize() state.
std::uint64_t netlist_hash(const LogicNetlist& netlist);

}  // namespace lrsizer::netlist
