#include "runtime/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <stop_token>
#include <unordered_map>
#include <utility>

#include "api/session.hpp"
#include "eco/incremental.hpp"
#include "netlist/generator.hpp"
#include "runtime/pool.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace lrsizer::runtime {

BatchJob make_profile_job(const std::string& profile, std::uint64_t seed,
                          const core::FlowOptions& options) {
  BatchJob job;
  job.name = profile;
  job.seed = seed;
  job.netlist = netlist::generate_circuit(netlist::spec_for_profile(profile, seed));
  job.options = options;
  return job;
}

std::size_t BatchResult::num_failed() const {
  std::size_t failed = 0;
  for (const auto& job : jobs) {
    if (!job.ok && !job.cancelled) ++failed;
  }
  return failed;
}

std::size_t BatchResult::num_cancelled() const {
  std::size_t cancelled = 0;
  for (const auto& job : jobs) {
    if (job.cancelled) ++cancelled;
  }
  return cancelled;
}

std::size_t BatchResult::num_cache_hits() const {
  std::size_t hits = 0;
  for (const auto& job : jobs) {
    if (job.cache_hit) ++hits;
  }
  return hits;
}

JobOutcome run_job(BatchJob job, const JobControls& controls) {
  JobOutcome outcome;
  outcome.name = job.name;
  outcome.seed = job.seed;
  util::WallTimer timer;
  // The session owns the netlist for the run and hands it back afterwards —
  // constructed outside the try so the hand-back survives a throwing stage.
  api::SizingSession session(std::move(job.netlist), job.options);
  // The session stops on the caller's token, or once the deadline passed.
  std::stop_source stop;
  const std::stop_callback link(controls.stop, [&stop] { stop.request_stop(); });
  bool deadline_passed = false;
  const auto check_deadline = [&] {
    if (!deadline_passed && std::chrono::steady_clock::now() >= controls.deadline) {
      deadline_passed = true;
      stop.request_stop();
    }
  };
  try {
    session.set_stop_token(stop.get_token());
    session.set_trace(controls.trace);
    session.set_observer([&](const core::OgwsIterate& iterate) {
      if (controls.observer) controls.observer(outcome.name, iterate);
      check_deadline();  // the next iteration's stop poll sees it
    });
    const auto warm_start = [&](api::WarmSeed seed) {
      if (const api::Status st = session.warm_start(std::move(seed)); !st.ok()) {
        throw std::invalid_argument("batch job '" + job.name + "': " + st.to_string());
      }
    };
    if (!job.warm.empty()) warm_start(std::move(job.warm));
    check_deadline();
    api::Status status = session.elaborate();
    if (status.ok() && job.eco_index) {
      eco::EcoSeed seed =
          eco::seed_from_index(session.netlist(), *session.elaboration(), *job.eco_index);
      if (!seed.empty()) {
        warm_start(std::move(seed.warm));
        outcome.eco_base = std::move(job.eco_base);
        outcome.eco_reused_nodes = seed.reused_nodes;
        outcome.eco_dirty_gates = seed.dirty_gates;
      }
    }
    for (const auto stage : {&api::SizingSession::simulate_and_order,
                             &api::SizingSession::derive_bounds,
                             &api::SizingSession::size}) {
      if (!status.ok()) break;
      check_deadline();
      status = (session.*stage)();
    }
    outcome.cancelled = session.cancelled();
    outcome.timed_out = outcome.cancelled && deadline_passed;
    if (session.has_result()) {
      // Completed, or cancelled mid-OGWS — either way a usable (partial)
      // result exists and the summary reports it (summary.cancelled flags
      // the interrupt).
      outcome.flow = session.take_result();
      outcome.summary = core::summarize_flow(*outcome.flow);
      outcome.ok = true;
    } else {
      outcome.error = "batch job '" + job.name + "': " + status.to_string();
    }
  } catch (const std::exception& e) {
    outcome.error = e.what();
  } catch (...) {
    outcome.error = "unknown exception";
  }
  outcome.netlist = session.release_netlist();
  outcome.seconds = timer.seconds();
  util::log_debug() << "batch job '" << outcome.name << "' "
                    << (outcome.ok ? "ok" : outcome.cancelled ? "CANCELLED" : "FAILED")
                    << " in " << outcome.seconds << " s";
  return outcome;
}

/// Final sizes of a completed flow as sparse (NodeId, size) pairs — the
/// cache-entry/warm-start currency.
std::vector<std::pair<std::int32_t, double>> sparse_sizes(
    const core::FlowResult& flow) {
  std::vector<std::pair<std::int32_t, double>> sizes;
  const netlist::Circuit& circuit = flow.circuit;
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    sizes.emplace_back(v, circuit.size(v));
  }
  return sizes;
}

CachedEntry cached_entry(const JobOutcome& outcome) {
  CachedEntry entry;
  entry.job = job_json(outcome);
  // The "eco" block lives inside the job object (not a serve response's
  // wrapper) so an exact cache hit, served from entry.job verbatim, stays
  // byte-identical to the seeded run's first response.
  if (!outcome.eco_base.empty()) {
    Json eco = Json::object();
    eco.set("base_hash", outcome.eco_base);
    eco.set("dirty_nodes", static_cast<std::int64_t>(outcome.eco_dirty_gates));
    eco.set("reused_nodes", outcome.eco_reused_nodes);
    entry.job.set("eco", eco);
  }
  entry.sizes = sparse_sizes(*outcome.flow);
  entry.eco = eco::build_eco_index(outcome.netlist, *outcome.flow);
  return entry;
}

namespace {

JobOutcome run_one(BatchJob&& job, const BatchOptions& options,
                   const std::string* key) {
  JobOutcome outcome = run_job(
      std::move(job), JobControls{options.stop, options.observer, options.trace});
  // Publish completed cold runs; cancelled/failed outcomes never enter the
  // cache (their bits depend on where the interrupt landed). Entries carry
  // the per-net ECO index so later revisions can warm-start from them.
  if (key && outcome.ok && !outcome.cancelled) {
    options.cache->store(*key, cached_entry(outcome));
  }
  return outcome;
}

/// Outcome for a job answered entirely from a completed cache entry.
JobOutcome outcome_from_cache(BatchJob&& job,
                              const std::shared_ptr<const CachedEntry>& entry) {
  JobOutcome outcome;
  outcome.name = job.name;
  outcome.seed = job.seed;
  outcome.ok = true;
  outcome.cache_hit = true;
  outcome.summary = summary_from_json(entry->job);
  outcome.netlist = std::move(job.netlist);
  return outcome;
}

}  // namespace

BatchResult run_batch(std::vector<BatchJob> jobs, const BatchOptions& options) {
  ThreadPool pool(options.jobs);  // 0 = hardware concurrency
  BatchResult result;
  result.num_workers = pool.num_workers();

  util::WallTimer wall;

  // Cache pre-pass (submit-order deterministic, so reports stay byte-equal
  // at any worker count): key every cacheable job, answer completed hits
  // without submitting, and collapse byte-identical in-batch duplicates
  // onto their first occurrence. Seeded jobs bypass the cache — their
  // outcome depends on the seed, not just the key.
  const std::size_t n = jobs.size();
  std::vector<std::string> keys(n);
  std::vector<char> cacheable(n, 0);
  std::vector<std::shared_ptr<const CachedEntry>> hit(n);
  std::vector<std::ptrdiff_t> dup_of(n, -1);
  if (options.cache) {
    std::unordered_map<std::string, std::size_t> owner_of;
    for (std::size_t i = 0; i < n; ++i) {
      if (!jobs[i].warm.empty() || jobs[i].eco_index) continue;
      keys[i] = cache_key(jobs[i].netlist, jobs[i].options);
      cacheable[i] = 1;
      if ((hit[i] = options.cache->lookup(keys[i]))) continue;
      const auto [it, inserted] = owner_of.emplace(keys[i], i);
      if (!inserted) dup_of[i] = static_cast<std::ptrdiff_t>(it->second);
    }
  }

  std::vector<std::optional<std::future<JobOutcome>>> futures(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (hit[i] || dup_of[i] >= 0) continue;
    const std::string* key = cacheable[i] ? &keys[i] : nullptr;
    // run_batch blocks on every future below, so borrowing `options` (stop
    // token, observer, cache) by reference is safe for the workers'
    // lifetime.
    futures[i] =
        pool.submit([job = std::move(jobs[i]), &options, key]() mutable {
          return run_one(std::move(job), options, key);
        });
  }

  result.jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (futures[i]) {
      result.jobs.push_back(futures[i]->get());
    } else if (hit[i]) {
      result.jobs.push_back(outcome_from_cache(std::move(jobs[i]), hit[i]));
    } else {
      // In-batch duplicate: its owner came earlier in submit order, so its
      // outcome is already assembled — share it bit for bit.
      const JobOutcome& owner =
          result.jobs[static_cast<std::size_t>(dup_of[i])];
      JobOutcome dup;
      dup.name = jobs[i].name;
      dup.seed = jobs[i].seed;
      dup.ok = owner.ok;
      dup.cancelled = owner.cancelled;
      dup.cache_hit = true;
      dup.error = owner.error;
      dup.flow = owner.flow;
      dup.summary = owner.summary;
      dup.netlist = std::move(jobs[i].netlist);
      result.jobs.push_back(std::move(dup));
    }
  }
  result.wall_seconds = wall.seconds();

  for (const auto& outcome : result.jobs) {
    result.total_job_seconds += outcome.seconds;
    if (outcome.ok) {
      result.total_memory_bytes += outcome.summary.memory_bytes;
      if (outcome.summary.memory_bytes > result.peak_memory_bytes) {
        result.peak_memory_bytes = outcome.summary.memory_bytes;
      }
    }
  }
  return result;
}

// ---- report serialization ---------------------------------------------------

namespace {

Json metrics_json(const timing::Metrics& m) {
  Json j = Json::object();
  j.set("area_um2", m.area_um2);
  j.set("power_w", m.power_w);
  j.set("cap_f", m.cap_f);
  j.set("noise_f", m.noise_f);
  j.set("noise_exact_f", m.noise_exact_f);
  j.set("delay_s", m.delay_s);
  return j;
}

/// Non-finite values serialize as null; restore them as +inf (every nullable
/// field in this schema — rel_gap, dual, violations — is a "no finite value
/// yet" marker, never negative).
double number_or_inf(const Json& j) {
  return j.is_null() ? std::numeric_limits<double>::infinity() : j.as_number();
}

timing::Metrics metrics_from_json(const Json& j) {
  timing::Metrics m;
  m.area_um2 = j.at("area_um2").as_number();
  m.power_w = j.at("power_w").as_number();
  m.cap_f = j.at("cap_f").as_number();
  m.noise_f = j.at("noise_f").as_number();
  m.noise_exact_f = j.at("noise_exact_f").as_number();
  m.delay_s = j.at("delay_s").as_number();
  return m;
}

}  // namespace

Json job_json(const JobOutcome& outcome) {
  Json j = Json::object();
  j.set("name", outcome.name);
  j.set("seed", outcome.seed);
  j.set("ok", outcome.ok);
  j.set("cancelled", outcome.cancelled);
  j.set("cache_hit", outcome.cache_hit);
  if (!outcome.ok) {
    j.set("error", outcome.error);
    j.set("seconds", outcome.seconds);
    return j;
  }
  const core::FlowSummary& s = outcome.summary;
  j.set("num_gates", static_cast<std::int64_t>(s.num_gates));
  j.set("num_wires", static_cast<std::int64_t>(s.num_wires));
  j.set("init", metrics_json(s.init_metrics));
  j.set("final", metrics_json(s.final_metrics));
  Json bounds = Json::object();
  bounds.set("delay_s", s.bound_delay_s);
  bounds.set("cap_f", s.bound_cap_f);
  bounds.set("noise_f", s.bound_noise_f);
  j.set("bounds", bounds);
  j.set("converged", s.converged);
  j.set("iterations", static_cast<std::int64_t>(s.iterations));
  j.set("area_um2", s.area_um2);
  j.set("dual", s.dual);
  j.set("rel_gap", s.rel_gap);
  j.set("max_violation", s.max_violation);
  j.set("ordering_cost_initial", s.ordering_cost_initial);
  j.set("ordering_cost_woss", s.ordering_cost_woss);
  j.set("stage1_seconds", s.stage1_seconds);
  j.set("stage2_seconds", s.stage2_seconds);
  j.set("memory_bytes", s.memory_bytes);
  j.set("seconds", outcome.seconds);
  return j;
}

core::FlowSummary summary_from_json(const Json& j) {
  core::FlowSummary s;
  s.num_gates = static_cast<std::int32_t>(j.at("num_gates").as_number());
  s.num_wires = static_cast<std::int32_t>(j.at("num_wires").as_number());
  s.init_metrics = metrics_from_json(j.at("init"));
  s.final_metrics = metrics_from_json(j.at("final"));
  const Json& bounds = j.at("bounds");
  s.bound_delay_s = bounds.at("delay_s").as_number();
  s.bound_cap_f = bounds.at("cap_f").as_number();
  s.bound_noise_f = bounds.at("noise_f").as_number();
  s.converged = j.at("converged").as_bool();
  // Absent in pre-session lrsizer-batch-v1 reports; default false.
  if (const Json* cancelled = j.find("cancelled")) s.cancelled = cancelled->as_bool();
  s.iterations = static_cast<int>(j.at("iterations").as_number());
  s.area_um2 = j.at("area_um2").as_number();
  s.dual = number_or_inf(j.at("dual"));
  s.rel_gap = number_or_inf(j.at("rel_gap"));
  s.max_violation = number_or_inf(j.at("max_violation"));
  s.ordering_cost_initial = j.at("ordering_cost_initial").as_number();
  s.ordering_cost_woss = j.at("ordering_cost_woss").as_number();
  s.stage1_seconds = j.at("stage1_seconds").as_number();
  s.stage2_seconds = j.at("stage2_seconds").as_number();
  s.memory_bytes = static_cast<std::size_t>(j.at("memory_bytes").as_number());
  return s;
}

Json batch_json(const BatchResult& result) {
  Json j = Json::object();
  j.set("schema", "lrsizer-batch-v2");
  if (result.shard_count > 0) {
    // Present only in shard reports; merge_batch_reports consumes it and
    // the merged report drops it — matching an unsharded report's shape.
    Json shard = Json::object();
    shard.set("index", static_cast<std::int64_t>(result.shard_index));
    shard.set("count", static_cast<std::int64_t>(result.shard_count));
    j.set("shard", shard);
  }
  j.set("workers", static_cast<std::int64_t>(result.num_workers));
  j.set("wall_seconds", result.wall_seconds);
  j.set("total_job_seconds", result.total_job_seconds);
  j.set("speedup", result.speedup());
  j.set("total_memory_bytes", result.total_memory_bytes);
  j.set("peak_memory_bytes", result.peak_memory_bytes);
  j.set("failed", result.num_failed());
  j.set("cancelled", result.num_cancelled());
  j.set("cache_hits", result.num_cache_hits());
  Json jobs = Json::array();
  for (const auto& outcome : result.jobs) jobs.push_back(job_json(outcome));
  j.set("jobs", jobs);
  return j;
}

Json merge_batch_reports(const std::vector<Json>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge: no reports given");
  }
  const std::size_t count = shards.size();
  // Validate the shard family: every report carries shard {index, count}
  // with the same count == number of inputs, indices a permutation of 0..N-1.
  std::vector<const Json*> by_index(count, nullptr);
  for (const Json& report : shards) {
    if (!report.is_object() || !report.find("schema") ||
        report.at("schema").as_string() != "lrsizer-batch-v2") {
      throw std::invalid_argument("merge: input is not a lrsizer-batch-v2 report");
    }
    const Json* shard = report.find("shard");
    if (!shard) {
      throw std::invalid_argument(
          "merge: report has no shard annotation (was it produced with --shard?)");
    }
    // Validate as doubles first: casting an out-of-range double to size_t
    // is undefined, and these come from files the user may have edited.
    const double index_d = shard->at("index").as_number();
    const double count_d = shard->at("count").as_number();
    if (!(index_d >= 0 && index_d < 1e9) || !(count_d >= 1 && count_d < 1e9)) {
      throw std::invalid_argument("merge: shard index/count out of range");
    }
    const auto index = static_cast<std::size_t>(index_d);
    const auto n = static_cast<std::size_t>(count_d);
    if (n != count) {
      throw std::invalid_argument(
          "merge: report says " + std::to_string(n) + " shards but " +
          std::to_string(count) + " were given");
    }
    if (index >= count || by_index[index]) {
      throw std::invalid_argument("merge: duplicate or out-of-range shard index " +
                                  std::to_string(index));
    }
    by_index[index] = &report;
  }

  // Re-interleave: global job g ran as shard g mod N, position g div N.
  std::size_t total_jobs = 0;
  for (const Json* report : by_index) total_jobs += report->at("jobs").size();
  Json jobs = Json::array();
  for (std::size_t g = 0; g < total_jobs; ++g) {
    const auto& shard_jobs = by_index[g % count]->at("jobs").as_array();
    const std::size_t pos = g / count;
    if (pos >= shard_jobs.size()) {
      throw std::invalid_argument(
          "merge: shard " + std::to_string(g % count) +
          " is missing job at global index " + std::to_string(g) +
          " (inconsistent shard job counts)");
    }
    jobs.push_back(shard_jobs[pos]);
  }

  // Rollups: additive counters sum; wall clock and workers take the max
  // (shards run concurrently on separate processes/machines).
  auto num = [](const Json& report, const char* key) {
    const Json* v = report.find(key);
    return v && v->is_number() ? v->as_number() : 0.0;
  };
  double workers = 0.0, wall = 0.0, job_seconds = 0.0, total_mem = 0.0,
         peak_mem = 0.0, failed = 0.0, cancelled = 0.0, cache_hits = 0.0;
  for (const Json* report : by_index) {
    workers = std::max(workers, num(*report, "workers"));
    wall = std::max(wall, num(*report, "wall_seconds"));
    job_seconds += num(*report, "total_job_seconds");
    total_mem += num(*report, "total_memory_bytes");
    peak_mem = std::max(peak_mem, num(*report, "peak_memory_bytes"));
    failed += num(*report, "failed");
    cancelled += num(*report, "cancelled");
    cache_hits += num(*report, "cache_hits");
  }

  Json j = Json::object();
  j.set("schema", "lrsizer-batch-v2");
  j.set("workers", workers);
  j.set("wall_seconds", wall);
  j.set("total_job_seconds", job_seconds);
  j.set("speedup", wall > 0.0 ? job_seconds / wall : 0.0);
  j.set("total_memory_bytes", total_mem);
  j.set("peak_memory_bytes", peak_mem);
  j.set("failed", failed);
  j.set("cancelled", cancelled);
  j.set("cache_hits", cache_hits);
  j.set("jobs", jobs);
  return j;
}

std::string batch_csv(const BatchResult& result) {
  std::ostringstream out;
  out << "name,seed,ok,cancelled,cache_hit,num_gates,num_wires,iterations,"
         "converged,noise_init_f,noise_final_f,delay_init_s,delay_final_s,"
         "power_init_w,power_final_w,area_init_um2,area_final_um2,"
         "rel_gap,max_violation,seconds,memory_bytes\n";
  for (const auto& job : result.jobs) {
    out << job.name << ',' << job.seed << ',' << (job.ok ? 1 : 0) << ','
        << (job.cancelled ? 1 : 0) << ',' << (job.cache_hit ? 1 : 0) << ',';
    if (!job.ok) {
      out << ",,,,,,,,,,,,,," << job.seconds << ",\n";
      continue;
    }
    const core::FlowSummary& s = job.summary;
    out.precision(17);
    out << s.num_gates << ',' << s.num_wires << ',' << s.iterations << ','
        << (s.converged ? 1 : 0) << ',' << s.init_metrics.noise_f << ','
        << s.final_metrics.noise_f << ',' << s.init_metrics.delay_s << ','
        << s.final_metrics.delay_s << ',' << s.init_metrics.power_w << ','
        << s.final_metrics.power_w << ',' << s.init_metrics.area_um2 << ','
        << s.final_metrics.area_um2 << ',' << s.rel_gap << ','
        << s.max_violation << ',' << job.seconds << ',' << s.memory_bytes
        << '\n';
  }
  return out.str();
}

}  // namespace lrsizer::runtime
