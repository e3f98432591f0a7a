// Incremental ECO re-sizing: seed a new sizing run from a cached prior
// solution, reusing everything the edit did not touch.
//
// The pipeline (docs/ECO.md):
//
//   1. build_eco_index() snapshots a completed run per *net*: the driving
//      gate's fanin-cone hash (netlist/cone_hash.hpp) plus the final sizes
//      of the net's circuit nodes, and the run's best-dual multiplier state.
//   2. seed_from_index() diffs a revised netlist against the snapshot by
//      cone hash, on the revision's own elaboration: every clean net
//      (identical transitive fanin cone, same node count after elaboration)
//      contributes its cached sizes as sparse warm-start entries; when the
//      revised circuit keeps the base's exact node/edge counts — e.g.
//      op-only edits, which do not change the elaborated structure — the
//      multipliers transfer verbatim too.
//   3. api::SizingSession::warm_start() consumes the seed; OGWS starts in
//      the converged neighborhood and re-converges in a fraction of the
//      cold iteration count (bench/bench_eco.cpp commits the trajectory).
//
// The same circuit under other bounds is the case with zero dirty gates: the
// whole size vector and the multipliers transfer. That is what
// `serve --cache-warm` does on a miss. A seeded run converges to an equally
// valid but not bit-identical solution trajectory versus a cold run.
//
// runtime::run_job runs steps 2 and 3 for a job that names its base
// (BatchJob::eco_index), between the session's elaborate() and its later
// stages, so a seeded job is elaborated once. The serve loop picks the base
// (runtime::ResultCache keeps each index inside its entry and matches bases
// by output-cone fingerprint) and hands it to the job.
#pragma once

#include <cstdint>

#include "api/session.hpp"
#include "core/flow.hpp"
#include "netlist/elaborator.hpp"
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
  /// fan-out cone. The other gates are clean.
  std::int32_t dirty_gates = 0;

  bool empty() const { return warm.empty(); }
};

/// Diff `revised` against the snapshot and collect the reusable solution
/// state. `elab` is the revision's elaboration (the sizing session's own,
/// api::SizingSession::elaboration); it maps nets to circuit nodes. A clean
/// net whose node count differs from the base's (its fanout changed) is
/// skipped rather than mis-seeded.
EcoSeed seed_from_index(const netlist::LogicNetlist& revised,
                        const netlist::ElabResult& elab,
                        const runtime::EcoIndex& index);

}  // namespace lrsizer::eco
