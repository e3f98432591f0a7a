// The long-lived sizing service behind `lrsizer serve`.
//
// A Server reads lrsizer-serve-v3 request lines (serve/protocol.hpp),
// schedules each size job as one api::SizingSession on a
// runtime::ThreadPool, and streams responses — accepted, periodic progress
// (from the session's IterationObserver), then exactly one terminal
// result / cancelled / error per job — through per-client line sinks.
// Responses for different jobs interleave; per job the order is always
// accepted → progress* → terminal.
//
// Reliability (docs/RELIABILITY.md): jobs carry deadlines (request
// "deadline_ms" or --default-deadline-ms, counted from admission) that
// runtime::run_job checks where the run already yields — before each stage
// and after each OGWS iteration — so a cut session yields its best partial
// result, answered as a result with "timeout": true. Admission control
// layers a cost budget (Σ pending node counts) and a per-client fairness
// cap on top of the flat max_pending; shed jobs get an `overloaded` error
// with a retry_after_ms hint. begin_drain() flips the server into drain
// mode: new size requests are rejected with code `shutdown` while accepted
// work finishes (or deadlines out), which is the SIGTERM path.
//
// Clients: a Server fans in any number of clients (add_client/remove_client),
// each with its own sink. Job ids are scoped per client — two clients may
// both run a job named "a" — and a cancel only reaches the canceller's own
// jobs. Removing a client cancels its in-flight jobs and drops any response
// still heading its way; the cache entries its jobs produced stay shared.
//
// Every job is deduped through a runtime::ResultCache: completed identical
// jobs answer instantly with the stored report (byte-identical payload),
// and an identical job arriving while its twin is still running attaches
// as a follower and shares the result when it lands (in-flight dedupe) —
// including across clients. A caller-supplied cache can be disk-backed and
// shared across restarts; by default the server owns a memory-only cache.
//
// Threading: calls for one client must be serialized (lines have an order),
// but different clients' handle_line calls may run concurrently. Each sink
// is invoked from read threads and pool workers, one complete line per
// call, serialized per client by an internal mutex — it only needs to
// write and flush. drain() blocks until every accepted job has emitted its
// terminal response. serve/listen.hpp reads requests for both transports
// (stdin and TCP); tests drive a Server directly through add_client.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <unordered_map>

#include "core/flow.hpp"
#include "obs/registry.hpp"
#include "runtime/cache.hpp"
#include "runtime/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"

namespace lrsizer::serve {

struct ServerOptions {
  /// Concurrent jobs (pool workers); clamped to >= 1.
  int jobs = 1;
  /// Defaults for every job; request "options" objects override per job.
  core::FlowOptions base_options;
  /// Result cache (borrowed, must outlive the server; may be shared with
  /// run_batch or other servers). nullptr: the server owns an unbounded
  /// memory-only cache.
  runtime::ResultCache* cache = nullptr;
  /// On a cache miss, seed the job from the cached base sharing the most
  /// output cones with the request's netlist (ResultCache::lookup_eco picks
  /// it, runtime::run_job seeds from it): sizes for the clean cones, plus
  /// the base's multipliers when the node and edge counts match
  /// (docs/ECO.md). The same circuit under other bounds is the case with
  /// zero dirty gates. A request naming "eco_base" uses its named base
  /// regardless of this flag. Off by default: a seeded run converges to an
  /// equally valid but not bit-identical solution.
  bool cache_warm = false;
  /// Backpressure: with > 0, a size request arriving while this many jobs
  /// are already accepted-but-unfinished is rejected with an `overloaded`
  /// error response (the client retries after its retry_after_ms hint).
  /// 0 = unbounded queue.
  int max_pending = 0;
  /// Fairness: with > 0, one client may have at most this many jobs
  /// accepted-but-unfinished; beyond it the request is shed `overloaded`
  /// even when global budgets have room, so a greedy client cannot starve
  /// the rest. 0 = no per-client cap.
  int max_pending_per_client = 0;
  /// Cost-aware admission: with > 0, a size request whose estimated cost
  /// (logic node count) would push Σ pending costs past this budget is
  /// shed `overloaded`. An empty queue always admits — one over-budget job
  /// is allowed to run alone rather than being unservable. 0 = no budget.
  std::int64_t max_queue_cost = 0;
  /// Deadline applied to jobs whose request names none (ms, from
  /// admission). A request's "deadline_ms" overrides, including 0 = none.
  /// 0 here = no default deadline. A deadline past what the steady clock
  /// can hold (about 292 years) means none.
  std::int64_t default_deadline_ms = 0;
  /// A request line longer than this is rejected with an `oversized` error
  /// instead of being buffered without bound (enforced by listen_and_serve
  /// on both transports).
  std::size_t max_line_bytes = 8u << 20;
  /// Server-wide cooperative shutdown (e.g. SIGINT): running jobs are
  /// cancelled mid-OGWS and answer `cancelled`.
  std::stop_token stop;
  /// Reported in the hello message, the stats response and the
  /// lrsizer_build_info metric.
  std::string version;
};

class Server {
 public:
  /// `sink` receives every response as one complete line (no trailing
  /// newline); it must write-and-flush so clients see responses promptly.
  using Sink = std::function<void(const std::string& line)>;
  /// Handle for one attached client; scopes job ids and owns one sink.
  using ClientId = std::uint64_t;

  /// Attach clients with add_client().
  explicit Server(ServerOptions options);
  /// Drains in-flight jobs (equivalent to drain()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attach a client. Its sink may be called until remove_client returns.
  ClientId add_client(Sink sink);
  /// Detach: cancels the client's in-flight jobs, drops pending responses
  /// to it, and guarantees its sink is never called again after return.
  void remove_client(ClientId client);
  std::size_t active_clients() const;

  /// Emit the hello line (schema, version, workers, cache mode).
  void hello(ClientId client);

  /// Handle one request line for this client (empty/blank lines are
  /// ignored). Returns false when the line was a shutdown request — the
  /// caller should stop reading and drain().
  bool handle_line(ClientId client, const std::string& line);

  /// Emit an `oversized` error to this client without parsing anything —
  /// the request reader's path for lines it refuses to buffer.
  void reject(ClientId client, const std::string& message);

  /// Block until every accepted job has emitted its terminal response.
  void drain();

  /// Enter drain mode (idempotent, callable from any thread — including a
  /// signal-watcher): new size requests are rejected with code `shutdown`,
  /// in-flight jobs run to their terminal response (or their deadline),
  /// stats reports state "draining" and /healthz turns 503. There is no way
  /// back to serving.
  void begin_drain();
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  /// True when no accepted job is awaiting its terminal response — together
  /// with draining(), the front-end's "drain complete, exit now" signal.
  bool idle() const;

  const ServerOptions& options() const { return options_; }

  /// The telemetry registry this server publishes every counter it keeps
  /// into — job admissions, terminal responses, cache traffic, queue
  /// depth, job latency. stats_snapshot() reads the same instruments back
  /// and the HTTP /metrics endpoint renders registry().snapshot(), so the
  /// two can never disagree.
  obs::Registry& registry() const { return *registry_; }

  /// Everything the stats response carries: job counters, queue depth,
  /// client count, cache counters, and p50/p99 job latency. The job
  /// counters are re-read from the registry instruments, the single source
  /// of truth.
  StatsSnapshot stats_snapshot() const;

 private:
  /// One accepted job from admission to its terminal response. Kept whole
  /// (including the netlist) so a follower whose owner aborted can re-run.
  struct Pending {
    ClientId client = 0;
    SizeRequest request;
    std::string scoped_id;  ///< "<client>:<id>" — the active_ key
    std::string key;        ///< cache key (runtime::cache_key), when cacheable
    bool cacheable = false;
    std::stop_source stop;
    std::chrono::steady_clock::time_point accepted_at;
    /// Absolute deadline, fixed at admission (runtime::JobControls::deadline);
    /// time_point::max(): none.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /// Admission cost (logic node count), released by answer().
    std::int64_t cost = 0;
  };

  /// One attached client. The mutex serializes its sink; a removed client
  /// keeps its (empty) slot alive through shared_ptrs held by in-flight
  /// emitters, which then find no sink and drop the line.
  struct Client {
    std::mutex mutex;
    Sink sink;
  };

  /// Wire every instrument and callback metric into registry_ (ctor tail;
  /// callbacks are tagged with `this` and dropped again in the destructor).
  void register_metrics();
  void emit(ClientId client, const runtime::Json& response);
  /// Route through the cache (hit / follower / owner) or straight to the
  /// pool; an owner picks its seed base here. Safe to call from read threads
  /// and from follower callbacks.
  void schedule(std::shared_ptr<Pending> pending);
  /// Run the job on the current (worker) thread and emit its terminal
  /// response; counts an applied seed and publishes/abandons the cache key
  /// for owners.
  void execute(const std::shared_ptr<Pending>& pending);
  /// Emit `pending`'s terminal response. Callers bump the response counters
  /// (and publish to the cache) first, and the job leaves the queue before
  /// the line is written, so a client that has read its answer finds it
  /// counted, its id free and an exact repeat answered from the cache. The
  /// drain guard (in_flight_) is released only after the write.
  void answer(const std::shared_ptr<Pending>& pending, const runtime::Json& response);
  void handle_size(ClientId client, SizeRequest request);
  void handle_cancel(ClientId client, const std::string& id);
  /// Backoff hint for `overloaded` rejections: scaled from the p50 job
  /// latency and the queue depth, clamped to [50, 10000] ms.
  std::int64_t retry_after_ms(std::size_t depth) const;

  ServerOptions options_;
  std::unique_ptr<runtime::ResultCache> owned_cache_;
  runtime::ResultCache* cache_ = nullptr;
  std::unique_ptr<obs::Registry> registry_ = std::make_unique<obs::Registry>();

  // Owned instruments (stable pointers into registry_). Counter writes are
  // lock-free, so the job counters no longer live under mutex_.
  obs::Counter* accepted_total_ = nullptr;
  obs::Counter* results_total_ = nullptr;    ///< responses_total{type="result"}
  obs::Counter* cancelled_total_ = nullptr;  ///< responses_total{type="cancelled"}
  obs::Counter* errors_total_ = nullptr;     ///< responses_total{type="error"}
  obs::Counter* timeouts_total_ = nullptr;   ///< lrsizer_jobs_timeout_total
  obs::Counter* shed_total_ = nullptr;       ///< lrsizer_serve_shed_total
  obs::Counter* cache_hits_total_ = nullptr;
  /// lrsizer_cache_hits_total{kind="warm"}: applied seeds, zero dirty gates
  obs::Counter* warm_seeds_total_ = nullptr;
  /// lrsizer_cache_hits_total{kind="eco"}: the other applied seeds
  obs::Counter* eco_seeds_total_ = nullptr;
  obs::Counter* eco_jobs_total_ = nullptr;          ///< lrsizer_eco_jobs_total
  obs::Counter* eco_reused_nodes_total_ = nullptr;  ///< lrsizer_eco_reused_nodes_total
  obs::Counter* eco_dirty_gates_total_ = nullptr;   ///< lrsizer_eco_dirty_gates_total
  obs::Histogram* latency_seconds_ = nullptr;

  std::chrono::steady_clock::time_point start_steady_{};
  double start_unix_s_ = 0.0;  ///< system clock at construction (Unix seconds)

  /// Guards clients_/next_client_ only — never held while mutex_ or a
  /// Client::mutex is taken by the same thread's caller (emit locks them
  /// strictly in sequence, not nested).
  mutable std::mutex clients_mutex_;
  std::unordered_map<ClientId, std::shared_ptr<Client>> clients_;
  ClientId next_client_ = 1;

  /// Set by begin_drain(); read lock-free on the request path.
  std::atomic<bool> draining_{false};

  mutable std::mutex mutex_;  ///< guards active_, in_flight_, queue_cost_,
                              ///< client_pending_
  std::condition_variable idle_cv_;
  /// scoped_id -> job admitted but not yet answered (its size is the queue
  /// depth); ids live in per-client namespaces.
  std::unordered_map<std::string, std::shared_ptr<Pending>> active_;
  /// Admitted jobs whose terminal response is not yet written: active_ plus
  /// answers mid-write. drain() waits for 0.
  std::size_t in_flight_ = 0;
  /// Σ Pending::cost of accepted-but-unfinished jobs (admission budget).
  std::int64_t queue_cost_ = 0;
  /// Accepted-but-unfinished jobs per client (fairness cap); entries are
  /// erased when they reach zero.
  std::unordered_map<ClientId, int> client_pending_;

  runtime::ThreadPool pool_;  ///< last member: workers die before the rest
};

}  // namespace lrsizer::serve
