// The lrsizer-serve-v3 wire protocol: newline-delimited JSON messages, one
// object per line in both directions. This header is the single in-code
// mirror of the spec in docs/SERVING.md — request parsing and response
// building live here, free of any threading, so the protocol round-trips
// under test without a running server.
//
// v2 added the stats request/response pair (fleet observability) on top of
// v1. v3 adds the reliability surface (docs/RELIABILITY.md): a machine-
// readable "code" on every error response (plus "retry_after_ms" on
// `overloaded` ones), the request "deadline_ms" field, the result
// "timeout" marker for deadline-cut partial results, and the stats
// server.state / jobs.timeouts / jobs.shed / cache.corrupt fields. Every
// v2 message is unchanged, so v2 clients keep working against a v3 server
// apart from the schema string in hello.
//
// Requests:  size | cancel | stats | shutdown
// Responses: hello | accepted | progress | result | cancelled | stats | error
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/status.hpp"
#include "core/ogws.hpp"
#include "runtime/batch.hpp"
#include "runtime/json.hpp"
#include "serve/stats.hpp"

namespace lrsizer::serve {

/// One parsed `size` request: the job to run plus its streaming knobs.
struct SizeRequest {
  /// Client-chosen correlation id; echoed on every response for this job.
  std::string id;
  /// Assembled job (name = id; netlist from "input", options = server
  /// defaults overridden by the request's "options" object).
  runtime::BatchJob job;
  /// Emit a progress response every Nth OGWS iteration (0 = none).
  int progress_every = 0;
  /// Include the final sparse size vector in the result response.
  bool want_sizes = false;
  /// Record a per-job flow trace (obs::TraceSession) and attach it to the
  /// result response as a "trace" object (lrsizer-trace-v1). Only cold runs
  /// carry one — cache hits and deduped followers answer from the stored
  /// report, which has no trace.
  bool trace = false;
  /// Cache key of a completed base run to ECO warm-start from (docs/ECO.md).
  /// Empty: none named — the server may still auto-detect a near-miss base
  /// when running with --eco. Mutually exclusive with "warm_start" (an ECO
  /// seed IS a warm start). A named base that is no longer cached simply
  /// runs cold — serving caches are best-effort.
  std::string eco_base;
  /// Wall-clock budget for this job in milliseconds, counted from admission
  /// (queue wait included). -1: the request named none — the server default
  /// (--default-deadline-ms) applies. 0: explicitly unlimited, overriding
  /// the server default. When the deadline fires the server cancels the job
  /// via its stop_source and answers with the best partial result, marked
  /// "timeout": true (docs/RELIABILITY.md §Deadlines).
  std::int64_t deadline_ms = -1;
};

struct Request {
  enum class Kind { kSize, kCancel, kStats, kShutdown };
  Kind kind = Kind::kShutdown;
  SizeRequest size;       ///< kSize
  std::string cancel_id;  ///< kCancel
  std::string stats_id;   ///< kStats (optional correlation id, may be empty)
};

/// Parse one request line against the server's default options. On failure
/// the Status message is what the error response should carry; *out is
/// untouched. `base` supplies every option the request does not override.
/// `error_id` (optional) receives the request's id whenever the line parsed
/// far enough to have one, so even rejections can echo it.
api::Status parse_request(const std::string& line,
                          const core::FlowOptions& base, Request* out,
                          std::string* error_id = nullptr);

/// Override `options` fields from a request "options" object. Accepted keys
/// (matching the CLI flags): vectors, use_woss, delay_bound, power_bound,
/// noise_bound, per_net_noise_bound, initial_size, max_iterations, sweep.
/// An integer "threads" is accepted and ignored (jobs size serially).
/// Seeds are NOT an options key — the request-level "seed" field is the one
/// seed knob (it covers generation and elaboration together, so two
/// requests with equal seeds always mean the same circuit). Unknown keys
/// are errors; the result is re-validated via api::validate_options.
api::Status apply_request_options(const runtime::Json& overrides,
                                  core::FlowOptions* options);

// ---- response builders (serialize with .dump() — compact, one line) --------

/// First line the server emits; names the schema, server version, worker
/// count and cache mode ("memory" or "disk").
runtime::Json hello_json(const std::string& version, int jobs,
                         const std::string& cache_mode);

/// The job was admitted; `key` is its cache key (clients can correlate
/// dedupe across jobs).
runtime::Json accepted_json(const std::string& id, const std::string& key);

runtime::Json progress_json(const std::string& id,
                            const core::OgwsIterate& iterate);

/// Terminal success. `job` is the lrsizer-batch-v1 job object — served
/// verbatim from the cache on a hit, so duplicate jobs get byte-identical
/// payloads. `sizes` (optional) is the final sparse size vector; `trace`
/// (optional) the job's lrsizer-trace-v1 document (requested via "trace",
/// cold runs only). `timeout` marks a deadline-cut partial result: the job
/// object then has "cancelled": true and carries the best iterate's KKT
/// state; the key is absent entirely on normal results, keeping cache-hit
/// payloads byte-identical to pre-deadline builds.
runtime::Json result_json(
    const std::string& id, bool cache_hit, const runtime::Json& job,
    const std::vector<std::pair<std::int32_t, double>>* sizes,
    const runtime::Json* trace = nullptr, bool timeout = false);

/// Terminal cancellation. `partial_job` (optional) carries the best partial
/// result when the cancel landed mid-OGWS.
runtime::Json cancelled_json(const std::string& id,
                             const runtime::Json* partial_job);

/// Answer to a stats request: job counters, client/queue gauges, cache
/// counters (exact/warm/eco hit kinds) + hit rate, and p50/p99 job latency
/// derived from the obs latency histogram. `id` (may be empty) echoes the
/// request's optional correlation id.
runtime::Json stats_json(const std::string& id, const StatsSnapshot& snapshot);

/// Malformed request or failed job. `id` is empty when the line never
/// parsed far enough to have one. `code` is the machine-readable reason,
/// one of:
///
///   parse         the line was not a valid request
///   oversized     the line exceeded --max-line-bytes
///   duplicate_id  a job with this id is already active for this client
///   not_found     cancel named no active job
///   overloaded    admission control shed the job — retry after the
///                 response's "retry_after_ms" (set iff code=overloaded)
///   shutdown      the server is draining and accepts no new work
///   deadline      the job's deadline fired before any usable partial result
///   failed        the job ran and failed
///
/// `retry_after_ms` < 0 omits the field.
runtime::Json error_json(const std::string& id, const std::string& code,
                         const std::string& message,
                         std::int64_t retry_after_ms = -1);

}  // namespace lrsizer::serve
