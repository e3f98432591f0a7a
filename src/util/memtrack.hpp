// Structure-level memory accounting for the Table 1 "mem" column and
// Figure 10(a).
//
// The paper reports the process footprint of a C program on a 1996 SPARC.
// We reproduce the *shape* (base + linear-in-|V|+|E| growth) by summing the
// actual byte footprint of every major data structure — each reports its
// own through a memory_bytes() member built on vector_bytes() — plus a fixed
// base representing the process/runtime overhead. api::SizingSession::size
// adds them up into FlowResult::memory_bytes, which the benches report.
#pragma once

#include <cstddef>
#include <vector>

namespace lrsizer::util {

/// Fixed overhead charged to every report; mirrors the ~0.9 MB base the
/// paper's Figure 10(a) shows at tiny circuit sizes.
inline constexpr std::size_t kMemoryBaseBytes = 900 * 1024;

/// Byte footprint of a vector's heap allocation.
template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace lrsizer::util
