// SizingSession — the staged flow API.
//
// The paper's flow is explicitly staged (§1): elaboration → simulation/WOSS
// ordering → bounds → LR-based OGWS. SizingSession runs that pipeline as
// four individually runnable stages, or all of them through run_all(), with
// observable progress, cooperative cancellation and warm-starting:
//
//   api::SizingSession session(netlist, options);
//   session.set_observer([](const core::OgwsIterate& it) { ... });  // progress
//   session.set_stop_token(source.get_token());                    // Ctrl-C
//   api::Status st = session.run_all();          // or stage-by-stage:
//   //   session.elaborate();
//   //   session.simulate_and_order();
//   //   session.derive_bounds();
//   //   session.size();
//   core::FlowSummary summary = session.summary();
//
// Contracts:
//   * Stages run in order, each exactly once; out-of-order calls return
//     kFailedPrecondition and leave the session untouched.
//   * A session runs its pipeline once (one-shot); build a new session to
//     re-size, seeding it with warm_start_from() to skip converged work.
//   * Stage-by-stage calls and run_all() give bit-identical results for the
//     same netlist and options; run_all() just runs the remaining stages in
//     order.
//   * Cancellation: every stage checks the stop token on entry (returning
//     kCancelled without running), and size() additionally polls it once
//     per OGWS iteration. A size() interrupted mid-OGWS still finishes its
//     bookkeeping — final metrics of the best iterate so far, memory
//     accounting — so summary()/result() describe a usable partial
//     solution; its Status is kCancelled and cancelled() turns true.
//   * The session is not thread-safe; run one session per thread (the batch
//     runtime does exactly that). request_stop() on the associated
//     stop_source may come from any thread or a signal handler.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stop_token>
#include <utility>
#include <vector>

#include "api/status.hpp"
#include "core/flow.hpp"
#include "netlist/logic_netlist.hpp"

namespace lrsizer::obs {
class TraceSession;
}

namespace lrsizer::api {

/// Per-iteration progress callback; receives OGWS's iteration summary
/// (iteration number, area, dual, certificate gap, max violation, timing).
using IterationObserver = std::function<void(const core::OgwsIterate&)>;

/// A warm start for SizingSession::warm_start: sparse per-node sizes plus,
/// optionally, the multiplier state of the run they came from.
struct WarmSeed {
  /// (circuit NodeId, size) entries; unlisted components keep the initial
  /// size.
  std::vector<std::pair<std::int32_t, double>> sizes;
  /// λ, β, γ and per-net γ of the run the sizes came from; size() replaces
  /// the dense `sizes` member with the circuit's sizes overlaid by `sizes`
  /// above. Empty λ: the multipliers start as in a cold run.
  /// They only fit a circuit with the same node/edge counts.
  core::OgwsWarmStart multipliers;

  bool empty() const { return sizes.empty() && multipliers.lambda.empty(); }
};

class SizingSession {
 public:
  /// Pipeline position: the next stage that run_all()/the stage calls would
  /// execute. kDone after size() (or run_all()) completed.
  enum class Stage { kElaborate, kSimulateAndOrder, kDeriveBounds, kSize, kDone };

  /// Takes ownership of the netlist. Options are validated lazily by the
  /// first stage call (so a default-constructed-then-tweaked session still
  /// reports readable errors instead of asserting).
  explicit SizingSession(netlist::LogicNetlist netlist,
                         core::FlowOptions options = core::FlowOptions{});
  ~SizingSession();

  SizingSession(SizingSession&&) = default;
  SizingSession& operator=(SizingSession&&) = default;

  // ---- controls (set any time before size()) -------------------------------

  /// Observer for every completed OGWS iteration; invoked on the thread
  /// running size(). Pass nullptr to clear.
  void set_observer(IterationObserver observer) { observer_ = std::move(observer); }

  /// Cooperative cancellation token; see the cancellation contract above.
  void set_stop_token(std::stop_token token) { stop_ = std::move(token); }

  /// Flow tracing (borrowed; must outlive the last stage call): each stage
  /// records one span, and size() additionally records one span per OGWS
  /// iteration (dual, max KKT violation, nodes moved, step) and per LRS pass —
  /// Chrome trace-event JSON via obs::TraceSession::dump_json(). nullptr
  /// (the default) disables tracing; the FlowResult is bit-identical either
  /// way (the hooks only read optimizer state).
  void set_trace(obs::TraceSession* trace) { trace_ = trace; }

  /// Record the warm-start snapshot (`result().ogws.warm`) so this run can
  /// seed warm_start_from() later. On by default — session results are
  /// restart seeds by contract; fire-and-forget harnesses that never reuse
  /// a result (e.g. the paper-reproduction benches) turn it off to skip the
  /// O(edges) multiplier copy per dual-improving iteration.
  void set_capture_warm_start(bool on) { capture_warm_start_ = on; }

  /// Seed the sizing stage: the seed's sizes become the incumbent iterate
  /// and its multipliers, when present, the starting point of the dual
  /// ascent. Every warm start goes through here — a sized .bench's `# size`
  /// annotations, the serve protocol's "warm_start", ECO and cache seeds
  /// (eco::seed_from_index) and warm_start_from(). Node ids and multiplier
  /// lengths are validated against the elaborated circuit when size() runs.
  /// Fails once size() has run, when a seed is already set, and on an empty
  /// seed.
  Status warm_start(WarmSeed seed);

  /// warm_start() from a prior run's result: its final sizes plus its
  /// best-dual multipliers, so identical options re-converge in one or two
  /// iterations and tweaked options start from the converged neighborhood.
  /// The prior result must come from the same netlist/elaboration.
  Status warm_start_from(const core::FlowResult& prior);

  // ---- stages --------------------------------------------------------------

  /// Stage 0: logic netlist → circuit graph.
  Status elaborate();
  /// Stage 1: logic simulation → switching similarity → per-channel WOSS
  /// track ordering → coupling pair sets N(i)/I(i).
  Status simulate_and_order();
  /// Stage 2a: set the initial sizes, record the initial metrics, derive
  /// the A0/P0/X0 bounds.
  Status derive_bounds();
  /// Stage 2b: OGWS (LR sizing), final metrics, memory accounting.
  Status size();
  /// Run every remaining stage in order; stops at the first non-OK status.
  Status run_all();

  // ---- state ---------------------------------------------------------------

  Stage next_stage() const { return next_; }
  bool finished() const { return next_ == Stage::kDone; }
  /// True once the stop token interrupted the pipeline (at a stage boundary
  /// or mid-OGWS).
  bool cancelled() const { return cancelled_; }
  /// True once size() ran — even when it was cancelled mid-OGWS, in which
  /// case result()/summary() describe the best partial solution.
  bool has_result() const { return result_.has_value(); }

  /// The assembled FlowResult; valid when has_result().
  const core::FlowResult& result() const;
  /// Move the FlowResult out (the session is spent afterwards).
  core::FlowResult take_result();
  /// Flat serializable snapshot of the result; valid when has_result().
  core::FlowSummary summary() const;
  /// Hand the input netlist back (e.g. for serializing sized outputs). The
  /// session is spent afterwards.
  netlist::LogicNetlist release_netlist();

  const core::FlowOptions& options() const { return options_; }
  /// The input netlist (until release_netlist()).
  const netlist::LogicNetlist& netlist() const { return netlist_; }
  /// The elaborated circuit and its net map, between elaborate() and size()
  /// (which moves them into the result); nullptr otherwise. A warm start
  /// resolved against them (eco::seed_from_index) still applies to size().
  const netlist::ElabResult* elaboration() const {
    return elab_.has_value() ? &*elab_ : nullptr;
  }

 private:
  /// Common stage prologue: options valid, pipeline at `expected`, not
  /// stopped. On success the caller runs the stage body.
  Status begin_stage(Stage expected, const char* name);
  static const char* stage_name(Stage stage);

  netlist::LogicNetlist netlist_;
  core::FlowOptions options_;
  Stage next_ = Stage::kElaborate;
  bool cancelled_ = false;

  IterationObserver observer_;
  std::stop_token stop_;
  obs::TraceSession* trace_ = nullptr;
  bool capture_warm_start_ = true;
  /// The warm_start() seed, materialized against the circuit by size().
  std::optional<WarmSeed> seed_;

  // Intermediate state, populated stage by stage and moved into the final
  // FlowResult by size().
  std::optional<netlist::ElabResult> elab_;
  std::optional<layout::CouplingSet> coupling_;
  double ordering_cost_initial_ = 0.0;
  double ordering_cost_woss_ = 0.0;
  double stage1_seconds_ = 0.0;
  /// Accumulated across derive_bounds() and size() (the monolithic flow's
  /// stage-2 timer covered both).
  double stage2_seconds_ = 0.0;
  timing::Metrics init_metrics_;
  core::Bounds bounds_;
  std::optional<core::FlowResult> result_;
};

}  // namespace lrsizer::api
