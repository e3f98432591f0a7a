// Fleet-observability surface of the serve loop: the counters and latency
// distribution behind the `{"type":"stats"}` request (lrsizer-serve-v3,
// docs/SERVING.md) and `lrsizer serve --stats-dump`.
//
// Latency percentiles are derived from the obs latency histogram
// (lrsizer_serve_job_latency_seconds) — the same instrument a /metrics
// scrape renders — so the stats response and Prometheus can never disagree
// about the distribution. histogram_percentile() is the one estimator.
#pragma once

#include <cstddef>
#include <string>

namespace lrsizer::obs {
class Histogram;
}

namespace lrsizer::serve {

/// Percentile estimate from a fixed-bucket histogram, p in [0, 100].
/// Nearest-rank bucket selection (rank = ceil(p/100 · count), min 1) with
/// linear interpolation inside the chosen bucket, so any non-empty
/// histogram yields a strictly positive estimate. Observations landing in
/// the +Inf overflow bucket are reported as the largest finite bound (the
/// Prometheus histogram_quantile convention). 0.0 when count is zero.
double histogram_percentile(const obs::Histogram& histogram, double p);

/// One coherent picture of a Server (job counters, queue, clients, cache,
/// latency) — what the stats response and --stats-dump serialize.
struct StatsSnapshot {
  // Server identity (v2-additive: absent from pre-0.6 stats responses).
  std::string version;          ///< build version (ServerOptions::version)
  std::string state = "serving";   ///< "serving" or "draining" (v3)
  double start_time_unix_s = 0.0;  ///< Unix time the server started
  double uptime_s = 0.0;           ///< seconds since start (steady clock)
  // Job counters (monotonic since server start).
  std::size_t accepted = 0;    ///< size requests admitted
  std::size_t completed = 0;   ///< result responses (hit or cold)
  std::size_t cache_hits = 0;  ///< results answered without running
  std::size_t cancelled = 0;   ///< cancelled responses
  std::size_t timeouts = 0;    ///< jobs cut by their deadline (v3)
  std::size_t errors = 0;      ///< error responses (parse + job failures)
  std::size_t shed = 0;        ///< jobs rejected by admission control (v3)
  std::size_t eco_jobs = 0;    ///< seeded jobs (= cache_warm_hits + cache_eco_hits)
  // Point-in-time gauges.
  std::size_t queue_depth = 0;     ///< jobs accepted but not yet terminal
  std::size_t active_clients = 0;  ///< connected clients
  // Result-cache counters (runtime::ResultCache::stats(), plus the server's
  // seed counts). Hit kinds are disjoint: exact / warm / eco
  // (docs/SERVING.md §Cache semantics).
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_lookup_hits = 0;    ///< exact-key hits
  std::size_t cache_lookup_misses = 0;
  std::size_t cache_warm_hits = 0;      ///< applied seeds, zero dirty gates
  std::size_t cache_eco_hits = 0;       ///< the other applied seeds
  std::size_t cache_evictions = 0;
  std::size_t cache_corrupt = 0;  ///< disk entries quarantined as corrupt (v3)
  bool cache_disk = false;
  // Job latency (seconds, accepted → terminal), derived from the obs
  // latency histogram.
  std::size_t latency_count = 0;
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;
};

/// Cache hit rate over completed lookups, in [0, 1] (0 when none yet).
/// Exact hits only — warm/eco reuse still runs the flow, so it is not a
/// "hit" in the answered-without-running sense.
double cache_hit_rate(const StatsSnapshot& snapshot);

/// Human-readable multi-line rendering — what `--stats-dump` prints on
/// shutdown.
std::string format_stats_text(const StatsSnapshot& snapshot);

}  // namespace lrsizer::serve
