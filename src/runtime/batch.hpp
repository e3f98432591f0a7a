// Batch-flow layer: run many independent two-stage sizing flows (one per
// BatchJob) concurrently on a ThreadPool and aggregate the results.
//
// Each job is fully deterministic given its netlist and options — jobs share
// no mutable state, so a batch produces bit-identical per-job results
// whether it runs on 1 worker or 8, and a report that differs only in its
// wall-clock fields and worker count (test_runtime asserts this). The rollup
// records both the batch wall clock and the summed per-job seconds; their
// ratio is the observed parallel speedup the benches report.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "core/flow.hpp"
#include "netlist/logic_netlist.hpp"
#include "runtime/cache.hpp"
#include "runtime/json.hpp"

namespace lrsizer::obs {
class TraceSession;
}

namespace lrsizer::runtime {

struct BatchJob {
  std::string name;                ///< report label (profile or file stem)
  netlist::LogicNetlist netlist;   ///< finalized input circuit
  core::FlowOptions options;
  std::uint64_t seed = 1;          ///< generator seed (0 for parsed inputs)
  /// Warm start applied through api::SizingSession::warm_start — e.g. the
  /// `# size` annotations of a previously sized .bench. Empty: cold start.
  api::WarmSeed warm;
  /// Cached base to seed from (docs/ECO.md): run_job diffs its index against
  /// the job's own elaboration (eco::seed_from_index) and warm-starts from
  /// whatever it reuses. The shared_ptr keeps the index alive if the cache
  /// evicts its entry meanwhile. nullptr: no base. Set at most one of
  /// `warm` and a base.
  std::shared_ptr<const EcoIndex> eco_index;
  /// The base's cache key (set whenever eco_index is), reported back as
  /// JobOutcome::eco_base.
  std::string eco_base;
};

/// Build a job from one of the paper's Table-1 profiles (synthesizes the
/// netlist with `spec_for_profile(profile, seed)`).
BatchJob make_profile_job(const std::string& profile, std::uint64_t seed = 1,
                          const core::FlowOptions& options = core::FlowOptions{});

struct JobOutcome {
  std::string name;
  std::uint64_t seed = 1;
  /// The job produced a result. A cancelled job can still be ok: when the
  /// stop arrived mid-OGWS, the session finishes its bookkeeping and the
  /// summary describes the best partial solution (summary.cancelled set).
  bool ok = false;
  /// A stop interrupted this job (before or during sizing): the caller's
  /// token, or a passed deadline.
  bool cancelled = false;
  /// JobControls::deadline passed and cut this run (cancelled is set too).
  bool timed_out = false;
  /// This outcome was served without running the flow: answered from the
  /// result cache, or deduped against an identical job in the same batch.
  bool cache_hit = false;
  std::string error;              ///< failure/cancellation text when !ok
  netlist::LogicNetlist netlist;  ///< the job's input, handed back
  /// Full flow result; engaged when ok.
  std::optional<core::FlowResult> flow;
  core::FlowSummary summary;
  double seconds = 0.0;           ///< this job's wall time inside its worker
  /// The seed run_job resolved from BatchJob::eco_index, when it applied
  /// one: the base's key, the circuit nodes it seeded and the gates with no
  /// cone match in the base. eco_base empty: the job was not seeded from a
  /// base.
  std::string eco_base;
  std::int64_t eco_reused_nodes = 0;
  std::int32_t eco_dirty_gates = 0;
};

/// Per-iteration progress callback: (job name, OGWS iteration summary).
/// Invoked concurrently from worker threads — must be thread-safe.
using BatchObserver =
    std::function<void(const std::string& job, const core::OgwsIterate& iterate)>;

/// Per-job controls for run_job(): the stop token, progress observer and
/// deadline one sizing run honors. A default-constructed JobControls means
/// "run to completion, silently".
struct JobControls {
  std::stop_token stop;
  BatchObserver observer;
  /// Flow tracing (borrowed; must outlive the run): stage, OGWS-iteration
  /// and LRS-pass spans recorded via api::SizingSession::set_trace. The
  /// sizing trajectory is bit-identical either way. nullptr: no tracing.
  obs::TraceSession* trace = nullptr;
  /// Absolute deadline. run_job reads the clock before each stage and after
  /// each OGWS iteration; once the deadline has passed it stops the run like
  /// a cancel (a partial result when OGWS had started) and sets
  /// JobOutcome::timed_out. time_point::max(): no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Run one job through its own api::SizingSession on the calling thread,
/// stage by stage; a job with a base is seeded right after elaborate().
/// Never throws: failures come back as !ok with the error text, and the
/// input netlist is always handed back in the outcome. The full FlowResult
/// is kept (callers drop it if they only want the summary). This is the
/// unit of work both run_batch and the serve loop (serve/server.hpp)
/// schedule.
JobOutcome run_job(BatchJob job, const JobControls& controls = JobControls{});

/// Final sizes of a completed flow as sparse (circuit NodeId, size) pairs —
/// the currency of cache entries and warm starts.
std::vector<std::pair<std::int32_t, double>> sparse_sizes(
    const core::FlowResult& flow);

/// The cache entry of a completed outcome (ok, not cancelled): job_json
/// plus, for a seeded job, an "eco" block as its last key (base_hash,
/// dirty_nodes, reused_nodes), the sparse sizes and the run's ECO index.
CachedEntry cached_entry(const JobOutcome& outcome);

struct BatchOptions {
  /// Concurrent jobs (pool workers); each job runs serially on its worker.
  /// 0 = auto: hardware concurrency. An explicit value is taken as-is.
  int jobs = 0;
  /// Cooperative batch-wide cancellation: in-flight jobs stop at the next
  /// OGWS iteration (keeping their partial result), queued jobs return
  /// immediately as cancelled. Default token: never cancelled.
  std::stop_token stop;
  /// Progress into the batch report; see BatchObserver.
  BatchObserver observer;
  /// Result cache (borrowed; may be shared with a serve loop). When set,
  /// run_batch keys every job as netlist_hash × canonical(options) before
  /// submitting: completed entries answer without running, byte-identical
  /// in-batch duplicates run once and share the outcome, and every
  /// completed cold run is stored back. Seeded jobs (a warm start or a
  /// base) bypass the cache: their outcome depends on the seed, not just
  /// the key. nullptr: no caching.
  ResultCache* cache = nullptr;
  /// Flow tracing shared by every job in the batch (borrowed; must outlive
  /// run_batch). TraceSession::record is thread-safe and spans carry dense
  /// per-thread tids, so concurrent jobs interleave cleanly in one trace.
  /// nullptr: no tracing.
  obs::TraceSession* trace = nullptr;
};

struct BatchResult {
  std::vector<JobOutcome> jobs;        ///< submit order, not completion order
  int num_workers = 0;
  double wall_seconds = 0.0;           ///< whole-batch wall clock
  double total_job_seconds = 0.0;      ///< Σ per-job seconds
  std::size_t total_memory_bytes = 0;  ///< Σ per-job memory_bytes
  std::size_t peak_memory_bytes = 0;   ///< max per-job memory_bytes
  /// Sweep-shard annotation (`--shard k/N`): this batch ran the global job
  /// list's indices ≡ shard_index (mod shard_count). Set by the caller
  /// after run_batch; shard_count == 0 means unsharded. batch_json emits a
  /// "shard" object that merge_batch_reports uses to interleave shards
  /// back into the global submit order.
  int shard_index = 0;
  int shard_count = 0;

  /// Jobs that neither produced a result nor were cancelled.
  std::size_t num_failed() const;
  /// Jobs interrupted by the batch stop token (with or without a partial
  /// result).
  std::size_t num_cancelled() const;
  /// Jobs answered without running the flow (cache or in-batch dedupe).
  std::size_t num_cache_hits() const;
  /// Σ job seconds / wall seconds — the observed parallel speedup.
  double speedup() const {
    return wall_seconds > 0.0 ? total_job_seconds / wall_seconds : 0.0;
  }
};

/// Run every job on a fresh pool of `options.jobs` workers.
BatchResult run_batch(std::vector<BatchJob> jobs,
                      const BatchOptions& options = BatchOptions{});

// ---- report serialization ---------------------------------------------------

/// One job as a JSON object (name, seed, ok/error, and the FlowSummary
/// fields; metrics nested under "init"/"final").
Json job_json(const JobOutcome& outcome);

/// Inverse of job_json's summary part — the schema round-trip used by tests
/// and downstream report consumers. Throws std::out_of_range on missing keys.
core::FlowSummary summary_from_json(const Json& j);

/// Whole batch: {"schema": "lrsizer-batch-v2", "workers": N, rollups,
/// "jobs": [...]}; a "shard" object after "schema" when shard_count > 0.
Json batch_json(const BatchResult& result);

/// CSV with one row per job (header included), matching job_json's scalars.
std::string batch_csv(const BatchResult& result);

/// Merge N shard reports (each batch_json'd with `shard: {index, count}`)
/// back into one unsharded `lrsizer-batch-v2` report: jobs re-interleaved
/// into the global submit order (global index g lives in shard g mod N),
/// additive rollups summed, wall clock and worker count taken as the max
/// across shards (shards run concurrently on separate processes/machines).
/// Apart from wall-clock fields, the merged report is byte-identical to
/// the report an unsharded run of the same job list would produce —
/// provided the global list has no byte-identical duplicate jobs (cache
/// dedupe is per-process, so a duplicate landing on a different shard than
/// its twin re-runs there and the cache_hit/cache_hits markers differ; the
/// sizing numbers still match by determinism).
/// Throws std::invalid_argument on schema/shard mismatches (wrong schema,
/// missing shard annotation, duplicate or missing shard indices,
/// inconsistent counts).
Json merge_batch_reports(const std::vector<Json>& shards);

}  // namespace lrsizer::runtime
