#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/cone_hash.hpp"
#include "netlist/logic_netlist.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace lrsizer::serve {

using runtime::CachedEntry;
using runtime::Json;
using runtime::ResultCache;

namespace {

using Clock = std::chrono::steady_clock;

/// `from` + `ms`, or no deadline (time_point::max()) when the clock cannot
/// hold the sum: the protocol admits up to 2^53 ms, and converting that to
/// the clock's int64 nanoseconds alone overflows.
Clock::time_point deadline_after(Clock::time_point from, std::int64_t ms) {
  const auto room =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::time_point::max() - from);
  if (ms >= room.count()) return Clock::time_point::max();
  return from + std::chrono::milliseconds(ms);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      start_steady_(std::chrono::steady_clock::now()),
      start_unix_s_(std::chrono::duration<double>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count()),
      pool_(options_.jobs >= 1 ? options_.jobs : 1) {
  if (options_.cache) {
    cache_ = options_.cache;
  } else {
    owned_cache_ = std::make_unique<ResultCache>();
    cache_ = owned_cache_.get();
  }
  register_metrics();
}

Server::~Server() {
  drain();
  // Callback metrics read through `this` (cache_, pool_, in_flight_); drop
  // them before any member dies.
  registry_->remove_owner(this);
}

void Server::register_metrics() {
  obs::Registry& reg = *registry_;
  const char* responses_help =
      "Terminal responses emitted, by type (result, cancelled, error).";
  accepted_total_ =
      reg.counter("lrsizer_serve_accepted_total", "Size requests admitted.");
  results_total_ = reg.counter("lrsizer_serve_responses_total", responses_help,
                               {{"type", "result"}});
  cancelled_total_ = reg.counter("lrsizer_serve_responses_total",
                                 responses_help, {{"type", "cancelled"}});
  errors_total_ = reg.counter("lrsizer_serve_responses_total", responses_help,
                              {{"type", "error"}});
  timeouts_total_ = reg.counter(
      "lrsizer_jobs_timeout_total",
      "Jobs whose deadline fired before completion (answered as a "
      "timeout-marked partial result, or a deadline error).");
  shed_total_ = reg.counter(
      "lrsizer_serve_shed_total",
      "Size requests rejected `overloaded` by admission control "
      "(backpressure, queue-cost budget, per-client fairness cap).");
  cache_hits_total_ = reg.counter(
      "lrsizer_serve_cache_hits_total",
      "Result responses answered without running the flow (cache or dedupe).");
  const char* eco_help_jobs =
      "Jobs seeded from a cached base (named eco_base or the --cache-warm probe).";
  eco_jobs_total_ = reg.counter("lrsizer_eco_jobs_total", eco_help_jobs);
  eco_reused_nodes_total_ = reg.counter(
      "lrsizer_eco_reused_nodes_total",
      "Circuit nodes seeded from an ECO base across all ECO jobs.");
  eco_dirty_gates_total_ = reg.counter(
      "lrsizer_eco_dirty_gates_total",
      "Gates with no cone match in their ECO base (the edits plus fan-out).");
  latency_seconds_ = reg.histogram(
      "lrsizer_serve_job_latency_seconds",
      "Job latency from admission to terminal response, in seconds.",
      {0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
       60.0});
  reg.gauge("lrsizer_build_info",
            "Build metadata carried in labels; the value is always 1.",
            {{"version", options_.version}})
      ->set(1.0);
  reg.gauge("lrsizer_serve_start_time_seconds",
            "Unix time the server started, in seconds.")
      ->set(start_unix_s_);
  reg.gauge("lrsizer_pool_workers", "Job-level worker threads in the pool.")
      ->set(static_cast<double>(pool_.num_workers()));
  reg.gauge("lrsizer_cache_disk_backed",
            "1 when the result cache persists to disk, 0 for memory-only.")
      ->set(cache_->disk_backed() ? 1.0 : 0.0);

  // Callback metrics: the source of truth lives in another subsystem and is
  // read at scrape time. All tagged with `this` for the destructor.
  reg.gauge_fn("lrsizer_serve_uptime_seconds",
               "Seconds since the server started (steady clock).", {},
               [this] {
                 return std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_steady_)
                     .count();
               },
               this);
  reg.gauge_fn("lrsizer_serve_queue_depth",
               "Jobs admitted but not yet answered with a terminal response.",
               {},
               [this] {
                 const std::lock_guard<std::mutex> lock(mutex_);
                 return static_cast<double>(active_.size());
               },
               this);
  reg.gauge_fn("lrsizer_serve_clients", "Attached clients.", {},
               [this] { return static_cast<double>(active_clients()); }, this);
  reg.gauge_fn("lrsizer_cache_entries", "Completed entries in the result cache.",
               {}, [this] { return static_cast<double>(cache_->stats().entries); },
               this);
  reg.gauge_fn("lrsizer_cache_bytes",
               "Estimated bytes held by the result cache.", {},
               [this] { return static_cast<double>(cache_->stats().bytes); },
               this);
  // Disjoint hit kinds (docs/SERVING.md §Cache semantics): exact-key
  // answers, and applied seeds with zero (warm) or some (eco) dirty gates.
  const char* cache_hits_help =
      "Result-cache reuse by kind: exact-key answers, and applied seeds with "
      "zero dirty gates (warm) or some (eco).";
  reg.counter_fn("lrsizer_cache_hits_total", cache_hits_help,
                 {{"kind", "exact"}},
                 [this] { return static_cast<double>(cache_->stats().hits); },
                 this);
  warm_seeds_total_ =
      reg.counter("lrsizer_cache_hits_total", cache_hits_help, {{"kind", "warm"}});
  eco_seeds_total_ =
      reg.counter("lrsizer_cache_hits_total", cache_hits_help, {{"kind", "eco"}});
  reg.counter_fn("lrsizer_cache_misses_total", "Result-cache lookup misses.",
                 {},
                 [this] { return static_cast<double>(cache_->stats().misses); },
                 this);
  reg.counter_fn(
      "lrsizer_cache_evictions_total",
      "Entries evicted from the result cache by the LRU budget.", {},
      [this] { return static_cast<double>(cache_->stats().evictions); }, this);
  reg.counter_fn(
      "lrsizer_cache_corrupt_total",
      "Disk-cache entries that failed parse or checksum verification and "
      "were quarantined to <key>.corrupt.", {},
      [this] { return static_cast<double>(cache_->stats().corrupt); }, this);
  reg.gauge_fn("lrsizer_serve_draining",
               "1 once the server entered drain mode (begin_drain), else 0.",
               {}, [this] { return draining() ? 1.0 : 0.0; }, this);
  // One series per fault point armed at construction time (the CLI arms
  // --fault-inject/LRSIZER_FAULT before building the server). Points armed
  // later — e.g. mid-test — are injected but not scraped.
  for (const std::string& point : fault::armed_points()) {
    reg.counter_fn(
        "lrsizer_fault_injected_total",
        "Faults injected by the deterministic fault-injection framework "
        "(src/fault), by point.",
        {{"point", point}},
        [point] { return static_cast<double>(fault::injected_count(point)); },
        this);
  }
}

Server::ClientId Server::add_client(Sink sink) {
  auto client = std::make_shared<Client>();
  client->sink = std::move(sink);
  const std::lock_guard<std::mutex> lock(clients_mutex_);
  const ClientId id = next_client_++;
  clients_.emplace(id, std::move(client));
  return id;
}

void Server::remove_client(ClientId client) {
  std::shared_ptr<Client> victim;
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    const auto it = clients_.find(client);
    if (it == clients_.end()) return;
    victim = std::move(it->second);
    clients_.erase(it);
  }
  {
    // Clear the sink under its mutex: any emit already holding a reference
    // finds no sink and drops the line; once we hold the mutex here, no
    // emit is mid-write, so the sink is never called after this returns.
    const std::lock_guard<std::mutex> lock(victim->mutex);
    victim->sink = nullptr;
  }
  // Cancel the client's in-flight jobs — nobody is listening for their
  // results. Deduped twins from other clients are unaffected: a follower
  // cancellation only detaches that follower, and an owner abandoning
  // makes its followers re-run (ResultCache contract).
  std::vector<std::shared_ptr<Pending>> orphans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [scoped_id, pending] : active_) {
      if (pending->client == client) orphans.push_back(pending);
    }
  }
  for (const auto& pending : orphans) pending->stop.request_stop();
}

std::size_t Server::active_clients() const {
  const std::lock_guard<std::mutex> lock(clients_mutex_);
  return clients_.size();
}

void Server::emit(ClientId client, const Json& response) {
  std::shared_ptr<Client> target;
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    const auto it = clients_.find(client);
    if (it == clients_.end()) return;  // client gone; drop the line
    target = it->second;
  }
  const std::string line = response.dump();
  const std::lock_guard<std::mutex> lock(target->mutex);
  if (target->sink) target->sink(line);
}

void Server::hello(ClientId client) {
  emit(client, hello_json(options_.version, pool_.num_workers(),
                          cache_->disk_backed() ? "disk" : "memory"));
}

StatsSnapshot Server::stats_snapshot() const {
  StatsSnapshot s;
  s.version = options_.version;
  s.state = draining() ? "draining" : "serving";
  s.start_time_unix_s = start_unix_s_;
  s.uptime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_steady_)
                   .count();
  // Job counters come from the registry instruments — the same storage a
  // /metrics scrape renders, so the two surfaces cannot disagree.
  s.accepted = accepted_total_->value();
  s.completed = results_total_->value();
  s.cache_hits = cache_hits_total_->value();
  s.cancelled = cancelled_total_->value();
  s.timeouts = timeouts_total_->value();
  s.errors = errors_total_->value();
  s.shed = shed_total_->value();
  s.eco_jobs = eco_jobs_total_->value();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.queue_depth = active_.size();
  }
  // Latency comes from the obs histogram — the same instrument a /metrics
  // scrape renders, so the two estimates can never diverge.
  s.latency_count = latency_seconds_->count();
  s.latency_p50_s = histogram_percentile(*latency_seconds_, 50.0);
  s.latency_p99_s = histogram_percentile(*latency_seconds_, 99.0);
  s.active_clients = active_clients();
  const runtime::CacheStats cache = cache_->stats();
  s.cache_entries = cache.entries;
  s.cache_bytes = cache.bytes;
  s.cache_lookup_hits = cache.hits;
  s.cache_lookup_misses = cache.misses;
  s.cache_warm_hits = warm_seeds_total_->value();
  s.cache_eco_hits = eco_seeds_total_->value();
  s.cache_evictions = cache.evictions;
  s.cache_corrupt = cache.corrupt;
  s.cache_disk = cache_->disk_backed();
  return s;
}

void Server::answer(const std::shared_ptr<Pending>& pending, const Json& response) {
  const auto now = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(now - pending->accepted_at).count();
  latency_seconds_->observe(seconds);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    active_.erase(pending->scoped_id);
    queue_cost_ -= pending->cost;
    const auto it = client_pending_.find(pending->client);
    if (it != client_pending_.end() && --it->second <= 0) {
      client_pending_.erase(it);
    }
  }
  emit(pending->client, response);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (--in_flight_ == 0) idle_cv_.notify_all();
}

bool Server::answer_stopped_follower(const std::shared_ptr<Pending>& pending) {
  // A deduped follower has no partial of its own to answer with.
  if (Clock::now() >= pending->deadline) {
    errors_total_->inc();
    timeouts_total_->inc();
    answer(pending, error_json(pending->request.id, "deadline",
                               "deadline exceeded while waiting on a deduped identical job"));
  } else if (pending->stop.stop_requested()) {
    cancelled_total_->inc();
    answer(pending, cancelled_json(pending->request.id, nullptr));
  } else {
    return false;
  }
  return true;
}

Clock::time_point Server::expire_followers() {
  std::vector<FollowerWait> due;
  Clock::time_point next = Clock::time_point::max();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Clock::time_point now = Clock::now();
    std::erase_if(followers_, [&](const auto& entry) {
      if (entry.first > now && !entry.second.pending->stop.stop_requested()) return false;
      due.push_back(entry.second);
      return true;
    });
    if (!followers_.empty()) next = followers_.begin()->first;
  }
  for (const FollowerWait& wait : due) {
    if (!wait.settled->exchange(true)) answer_stopped_follower(wait.pending);
  }
  return next;
}

void Server::drain() {
  for (;;) {
    const Clock::time_point next = expire_followers();
    std::unique_lock<std::mutex> lock(mutex_);
    // Idle, or a follower registered a deadline before `next`.
    const auto woken = [this, next] {
      return in_flight_ == 0 || (!followers_.empty() && followers_.begin()->first < next);
    };
    if (next == Clock::time_point::max()) {
      idle_cv_.wait(lock, woken);
    } else {
      idle_cv_.wait_until(lock, next, woken);
    }
    if (in_flight_ == 0) return;
  }
}

void Server::begin_drain() {
  draining_.store(true, std::memory_order_release);
}

bool Server::idle() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_ == 0;
}

void Server::reject(ClientId client, const std::string& message) {
  emit(client, error_json("", "oversized", message));
  errors_total_->inc();
}

bool Server::handle_line(ClientId client, const std::string& line) {
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) return true;
  Request request;
  // `id` echoes back on rejection whenever the line parsed far enough to
  // have one, so a client with several requests in flight knows which
  // request was rejected.
  std::string id;
  if (const api::Status st =
          parse_request(line, options_.base_options, &request, &id);
      !st.ok()) {
    emit(client, error_json(id, "parse", st.message()));
    errors_total_->inc();
    return true;
  }
  switch (request.kind) {
    case Request::Kind::kShutdown:
      return false;
    case Request::Kind::kCancel:
      handle_cancel(client, request.cancel_id);
      return true;
    case Request::Kind::kStats:
      emit(client, stats_json(request.stats_id, stats_snapshot()));
      return true;
    case Request::Kind::kSize:
      handle_size(client, std::move(request.size));
      return true;
  }
  return true;
}

void Server::handle_cancel(ClientId client, const std::string& id) {
  // Scoped lookup: a cancel only ever reaches the canceller's own jobs.
  const std::string scoped_id = std::to_string(client) + ':' + id;
  std::shared_ptr<Pending> pending;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = active_.find(scoped_id);
    if (it != active_.end()) pending = it->second;
  }
  if (!pending) {
    emit(client, error_json(id, "not_found", "cancel: no active job with this id"));
    errors_total_->inc();
    return;
  }
  // Cooperative: a running session stops at its next OGWS iteration; a
  // deduped follower, which runs nothing, answers `cancelled` here.
  pending->stop.request_stop();
  expire_followers();
}

void Server::handle_size(ClientId client, SizeRequest request) {
  auto pending = std::make_shared<Pending>();
  pending->client = client;
  pending->request = std::move(request);
  pending->accepted_at = std::chrono::steady_clock::now();
  // Estimated cost for the admission budget: the logic node count (the
  // paper's flow is near-linear in it — Figure 10) — known before any
  // elaboration runs.
  pending->cost = pending->request.job.netlist.num_gates_logic();
  const std::string id = pending->request.id;
  pending->scoped_id = std::to_string(client) + ':' + id;

  enum class Admit {
    kOk,
    kDraining,
    kDuplicateId,
    kBackpressure,
    kClientCap,
    kQueueCost,
  };
  Admit admit = Admit::kOk;
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    depth = active_.size();
    const auto per_client = client_pending_.find(client);
    if (draining()) {
      admit = Admit::kDraining;
    } else if (active_.count(pending->scoped_id) != 0) {
      admit = Admit::kDuplicateId;
    } else if (options_.max_pending > 0 &&
               depth >= static_cast<std::size_t>(options_.max_pending)) {
      admit = Admit::kBackpressure;
    } else if (options_.max_pending_per_client > 0 &&
               per_client != client_pending_.end() &&
               per_client->second >= options_.max_pending_per_client) {
      admit = Admit::kClientCap;
    } else if (options_.max_queue_cost > 0 && depth > 0 &&
               queue_cost_ + pending->cost > options_.max_queue_cost) {
      // `depth > 0`: an empty queue always admits, so one over-budget job
      // runs alone instead of being unservable forever.
      admit = Admit::kQueueCost;
    } else {
      active_[pending->scoped_id] = pending;
      ++in_flight_;
      queue_cost_ += pending->cost;
      ++client_pending_[client];
    }
  }
  switch (admit) {
    case Admit::kOk:
      break;
    case Admit::kDraining:
      emit(client, error_json(id, "shutdown",
                              "server is draining and accepts no new jobs"));
      errors_total_->inc();
      return;
    case Admit::kDuplicateId:
      emit(client, error_json(id, "duplicate_id",
                              "a job with this id is already active"));
      errors_total_->inc();
      return;
    case Admit::kBackpressure:
      emit(client,
           error_json(id, "overloaded",
                      "backpressure: " + std::to_string(options_.max_pending) +
                          " jobs already pending — retry later",
                      retry_after_ms(depth)));
      errors_total_->inc();
      shed_total_->inc();
      return;
    case Admit::kClientCap:
      emit(client,
           error_json(id, "overloaded",
                      "fairness: this client already has " +
                          std::to_string(options_.max_pending_per_client) +
                          " jobs pending — retry later",
                      retry_after_ms(depth)));
      errors_total_->inc();
      shed_total_->inc();
      return;
    case Admit::kQueueCost:
      emit(client,
           error_json(id, "overloaded",
                      "queue cost budget exhausted (" +
                          std::to_string(options_.max_queue_cost) +
                          " nodes) — retry later",
                      retry_after_ms(depth)));
      errors_total_->inc();
      shed_total_->inc();
      return;
  }
  accepted_total_->inc();
  // Effective deadline: the request's own wins (0 = explicitly none),
  // otherwise the server default. Counted from admission, so queue wait
  // counts against it.
  std::int64_t deadline_ms = pending->request.deadline_ms;
  if (deadline_ms < 0) deadline_ms = options_.default_deadline_ms;
  if (deadline_ms > 0) {
    pending->deadline = deadline_after(pending->accepted_at, deadline_ms);
  }
  // Jobs with a client-supplied seed bypass the cache: their outcome
  // depends on the seed, not just the key.
  pending->cacheable = pending->request.job.warm.empty();
  if (pending->cacheable) {
    pending->key = runtime::cache_key(pending->request.job.netlist,
                                      pending->request.job.options);
  }
  emit(client, accepted_json(id, pending->cacheable ? pending->key : ""));
  schedule(std::move(pending));
}

std::int64_t Server::retry_after_ms(std::size_t depth) const {
  // p50 job latency × how many queue "turns" are ahead of a retry. With no
  // latency history yet, suggest a modest fixed pause.
  const double p50_s = histogram_percentile(*latency_seconds_, 50.0);
  if (p50_s <= 0.0) return 100;
  const double workers = static_cast<double>(pool_.num_workers());
  const double turns =
      std::max(1.0, static_cast<double>(depth) / std::max(1.0, workers));
  return static_cast<std::int64_t>(
      std::clamp(p50_s * 1e3 * turns, 50.0, 10000.0));
}

void Server::schedule(std::shared_ptr<Pending> pending) {
  if (pending->cacheable) {
    std::shared_ptr<const CachedEntry> hit;
    // Fired exactly once by publish() (entry) or abandon() (nullptr) when
    // this job attaches as a follower of an identical in-flight run. Every
    // follower is also in followers_, and expire_followers() may answer it
    // first (deadline or cancel); `settled` lets only one of the two answer.
    auto settled = std::make_shared<std::atomic<bool>>(false);
    auto on_done = [this, pending, settled](std::shared_ptr<const CachedEntry> entry) {
      if (settled->exchange(true)) return;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto [first, last] = followers_.equal_range(pending->deadline);
        for (auto it = first; it != last; ++it) {
          if (it->second.pending == pending) {
            followers_.erase(it);
            break;
          }
        }
      }
      if (answer_stopped_follower(pending)) return;
      if (entry) {
        results_total_->inc();
        cache_hits_total_->inc();
        answer(pending,
               result_json(pending->request.id, true, entry->job,
                           pending->request.want_sizes ? &entry->sizes : nullptr));
      } else {
        // Owner failed or was cancelled — run this job on its own. It
        // re-acquires: it may become the new owner or follow another twin.
        schedule(pending);
      }
    };
    switch (cache_->acquire(pending->key, &hit, on_done)) {
      case ResultCache::Acquire::kHit:
        results_total_->inc();
        cache_hits_total_->inc();
        answer(pending,
               result_json(pending->request.id, true, hit->job,
                           pending->request.want_sizes ? &hit->sizes : nullptr));
        return;
      case ResultCache::Acquire::kFollower: {
        const std::lock_guard<std::mutex> lock(mutex_);
        // on_done may already have run (and found nothing to erase).
        if (!settled->load()) {
          const bool earliest =
              followers_.empty() || pending->deadline < followers_.begin()->first;
          followers_.emplace(pending->deadline, FollowerWait{pending, settled});
          if (earliest) idle_cv_.notify_all();
        }
        return;
      }
      case ResultCache::Acquire::kOwner: {
        // Seed base: a named ECO base wins; otherwise (with --cache-warm)
        // the cached entry sharing the most output cones — the same circuit
        // under other options shares all of them. run_job diffs it against
        // the job's own elaboration; a named base that is gone, or a base
        // with nothing reusable, just runs cold.
        runtime::BatchJob& job = pending->request.job;
        std::shared_ptr<const CachedEntry> base;
        std::string base_key = pending->request.eco_base;
        if (!base_key.empty()) {
          base = cache_->lookup_eco_base(base_key);
        } else if (options_.cache_warm) {
          base = cache_->lookup_eco(netlist::output_cone_hashes(job.netlist),
                                    pending->key, &base_key);
        }
        if (base && !base->eco.empty()) {
          // Aliasing: the index keeps its whole entry alive.
          job.eco_index = std::shared_ptr<const runtime::EcoIndex>(base, &base->eco);
          job.eco_base = std::move(base_key);
        }
        break;
      }
    }
  }
  pool_.submit([this, pending = std::move(pending)] { execute(pending); });
}

void Server::execute(const std::shared_ptr<Pending>& pending) {
  // Server-wide shutdown cancels this job too.
  std::stop_callback link(options_.stop,
                          [&stop = pending->stop] { stop.request_stop(); });
  runtime::JobControls controls;
  controls.stop = pending->stop.get_token();
  controls.deadline = pending->deadline;
  // Per-job trace opt-in: a private TraceSession for this run, serialized
  // into the result response. Only the cold run traces — the cached report a
  // hit or follower answers with has no trace by construction.
  std::unique_ptr<obs::TraceSession> trace;
  if (pending->request.trace) {
    trace = std::make_unique<obs::TraceSession>();
    controls.trace = trace.get();
  }
  const int every = pending->request.progress_every;
  if (every > 0) {
    controls.observer = [this, pending, every](const std::string&,
                                               const core::OgwsIterate& it) {
      if (it.k % every == 0) {
        emit(pending->client, progress_json(pending->request.id, it));
      }
    };
  }

  runtime::JobOutcome outcome =
      run_job(std::move(pending->request.job), controls);
  if (!outcome.eco_base.empty()) {
    (outcome.eco_dirty_gates == 0 ? warm_seeds_total_ : eco_seeds_total_)->inc();
    eco_jobs_total_->inc();
    eco_reused_nodes_total_->inc(static_cast<std::uint64_t>(outcome.eco_reused_nodes));
    eco_dirty_gates_total_->inc(static_cast<std::uint64_t>(outcome.eco_dirty_gates));
  }

  Json response;
  if (outcome.ok && !outcome.cancelled) {
    // The entry's ECO index lets it seed a future job (named via its key,
    // or found by output-cone overlap).
    CachedEntry entry = runtime::cached_entry(outcome);
    std::optional<Json> trace_doc;
    if (trace) trace_doc = Json::parse(trace->dump_json());
    response = result_json(pending->request.id, false, entry.job,
                           pending->request.want_sizes ? &entry.sizes : nullptr,
                           trace_doc ? &*trace_doc : nullptr);
    results_total_->inc();
    if (pending->cacheable) cache_->publish(pending->key, std::move(entry));
  } else if (outcome.cancelled) {
    if (pending->cacheable) cache_->abandon(pending->key);
    if (outcome.timed_out) {
      timeouts_total_->inc();
      if (outcome.ok) {
        // The deadline fired mid-OGWS: the best partial result (with its
        // KKT state in the job object) IS the answer — a result marked
        // "timeout": true, never cached (it is not the converged answer
        // for this key).
        const Json job = runtime::job_json(outcome);
        std::vector<std::pair<std::int32_t, double>> sizes;
        if (pending->request.want_sizes) {
          sizes = runtime::sparse_sizes(*outcome.flow);
        }
        response = result_json(pending->request.id, false, job,
                               pending->request.want_sizes ? &sizes : nullptr,
                               nullptr, /*timeout=*/true);
        results_total_->inc();
      } else {
        // Deadline fired before the sizing stage produced anything usable.
        response = error_json(pending->request.id, "deadline",
                              "deadline exceeded before a partial result existed");
        errors_total_->inc();
      }
    } else {
      std::optional<Json> partial;
      if (outcome.ok) partial = runtime::job_json(outcome);
      response = cancelled_json(pending->request.id, partial ? &*partial : nullptr);
      cancelled_total_->inc();
    }
  } else {
    if (pending->cacheable) cache_->abandon(pending->key);
    response = error_json(pending->request.id, "failed", outcome.error);
    errors_total_->inc();
  }
  answer(pending, response);
}

}  // namespace lrsizer::serve
