// Incremental ECO re-sizing: seed a new sizing run from a cached prior
// solution, reusing everything the edit did not touch.
//
// The pipeline (docs/ECO.md):
//
//   1. build_eco_index() snapshots a completed run per *net*: the driving
//      gate's fanin-cone hash (netlist/cone_hash.hpp) plus the final sizes
//      of the net's circuit nodes, and the run's best-dual multiplier state.
//   2. seed_from_index() diffs a revised netlist against the snapshot by
//      cone hash: every clean net (identical transitive fanin cone, same
//      node count after elaboration) contributes its cached sizes as sparse
//      warm-start entries; when the revised circuit keeps the base's exact
//      node/edge counts — e.g. op-only edits, which do not change the
//      elaborated structure — the multipliers transfer verbatim too.
//   3. api::SizingSession::warm_start() consumes the seed; OGWS starts in
//      the converged neighborhood and re-converges in a fraction of the
//      cold iteration count (bench/bench_eco.cpp commits the trajectory).
//
// The same circuit under other bounds is the case with zero dirty gates: the
// whole size vector and the multipliers transfer. That is what
// `serve --cache-warm` does on a miss. A seeded run converges to an equally
// valid but not bit-identical solution trajectory versus a cold run.
//
// Callers run step 3 through runtime::run_job with the seed as
// BatchJob::warm, as the serve loop does; it keeps each index inside its
// runtime::ResultCache entry and matches bases by output-cone fingerprint
// (runtime/cache.hpp).
#pragma once

#include <cstdint>

#include "api/session.hpp"
#include "core/flow.hpp"
#include "netlist/logic_netlist.hpp"
#include "runtime/cache.hpp"

namespace lrsizer::eco {

/// Snapshot a completed run for later ECO reuse. `netlist` must be the
/// (finalized) netlist `result` was sized from. Multipliers are copied from
/// result.ogws.warm — empty when the run was executed with warm-start
/// capture off, which only costs ECO consumers the multiplier transfer.
runtime::EcoIndex build_eco_index(const netlist::LogicNetlist& netlist,
                                  const core::FlowResult& result);

/// What seed_from_index() recovered from the snapshot for one revision.
struct EcoSeed {
  /// Sparse (circuit NodeId, size) entries covering the clean nets, plus the
  /// base run's multiplier state when the revised circuit has the same
  /// node/edge counts — food for api::SizingSession::warm_start.
  api::WarmSeed warm;
  /// Circuit nodes seeded from the snapshot (= warm.sizes.size()).
  std::int64_t reused_nodes = 0;
  /// Revised gates with no cone match in the base — the edits plus their
  /// fan-out cone.
  std::int32_t dirty_gates = 0;
  std::int32_t clean_gates = 0;

  bool empty() const { return warm.empty(); }
};

/// Diff `revised` against the snapshot and collect the reusable solution
/// state. Runs one preview elaboration of `revised` under `options` to map
/// nets to circuit nodes; a clean net whose node count differs from the
/// base's (its fanout changed) is skipped rather than mis-seeded.
EcoSeed seed_from_index(const netlist::LogicNetlist& revised,
                        const core::FlowOptions& options,
                        const runtime::EcoIndex& index);

}  // namespace lrsizer::eco
