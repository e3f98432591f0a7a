// Tests for the serving stack: netlist hashing, the result cache (including
// in-flight dedupe and LRU eviction), the lrsizer-serve-v3 protocol, the
// multi-client Server, the TCP event loop, and shard-report merging. Every
// message type docs/SERVING.md specifies is exercised here (hello, accepted,
// progress, result, cancelled, stats, error; size, cancel, stats, shutdown),
// and the concurrent-client stress test pins the determinism contract: every
// result payload byte-identical to a serial run. This suite carries the
// `parallel` ctest label so the TSan CI job covers the event loop.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/logic_netlist.hpp"
#include "obs/registry.hpp"
#include "netlist/generator.hpp"
#include "netlist/hash.hpp"
#include "runtime/batch.hpp"
#include "runtime/cache.hpp"
#include "runtime/json.hpp"
#include "serve/listen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"

namespace lrsizer {
namespace {

using runtime::Json;

netlist::GeneratorSpec tiny_spec(std::uint64_t seed) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 30;
  spec.num_wires = 60;
  spec.num_inputs = 6;
  spec.num_outputs = 3;
  spec.depth = 5;
  spec.seed = seed;
  return spec;
}

core::FlowOptions fast_options() {
  core::FlowOptions options;
  options.num_vectors = 8;
  return options;
}

// ---- netlist hashing --------------------------------------------------------

TEST(NetlistHash, EqualStructuresHashEqual) {
  const auto a = netlist::generate_circuit(tiny_spec(1));
  const auto b = netlist::generate_circuit(tiny_spec(1));
  EXPECT_EQ(netlist::netlist_hash(a), netlist::netlist_hash(b));
}

TEST(NetlistHash, DifferentSeedsHashDifferent) {
  const auto a = netlist::generate_circuit(tiny_spec(1));
  const auto b = netlist::generate_circuit(tiny_spec(2));
  EXPECT_NE(netlist::netlist_hash(a), netlist::netlist_hash(b));
}

// ---- cache keys -------------------------------------------------------------

TEST(CacheKey, AnyOtherOptionInvalidatesTheKey) {
  const auto nl = netlist::generate_circuit(tiny_spec(1));
  const auto base = runtime::cache_key(nl, fast_options());
  core::FlowOptions tweaked = fast_options();
  tweaked.bound_factors.noise = 0.17;
  const auto other = runtime::cache_key(nl, tweaked);
  EXPECT_NE(base, other);
  // Clients hold keys as eco_base handles and keys are the on-disk file
  // stems, so the format is fixed: n<netlist>-e<elaboration>-o<options>.
  EXPECT_TRUE(std::regex_match(
      base, std::regex("n[0-9a-f]{16}-e[0-9a-f]{16}-o[0-9a-f]{16}")))
      << base;
  // Same circuit, different solver/bound knobs: only the o-part moves.
  const auto circuit_part = [](const std::string& key) {
    return key.substr(0, key.rfind("-o"));
  };
  EXPECT_EQ(circuit_part(base), circuit_part(other));

  core::FlowOptions reelab = fast_options();
  reelab.elab.seed = 99;
  // A different elaboration is a different circuit: the e-part moves too.
  EXPECT_NE(circuit_part(runtime::cache_key(nl, reelab)), circuit_part(base));
}

TEST(CacheKey, SweepOptionIsAcceptedIgnoredAndLeavesTheKeyAlone) {
  // LRS has one sweep since 0.16, and the canon has no sweep key. A request
  // that still carries either old "sweep" value shares its cache entry with
  // one that omits it.
  const std::string prefix = R"({"type":"size","id":"a","input":{"profile":"c17"})";
  serve::Request plain;
  ASSERT_TRUE(serve::parse_request(prefix + "}", core::FlowOptions{}, &plain).ok());
  const std::string key = runtime::cache_key(plain.size.job.netlist, plain.size.job.options);
  for (const std::string mode : {"dense", "worklist"}) {
    serve::Request request;
    ASSERT_TRUE(serve::parse_request(prefix + R"(,"options":{"sweep":")" + mode + R"("}})",
                                     core::FlowOptions{}, &request)
                    .ok())
        << mode;
    EXPECT_EQ(runtime::cache_key(request.size.job.netlist, request.size.job.options), key)
        << mode;
  }
  EXPECT_EQ(runtime::canonical_options_json(core::FlowOptions{}).at("ogws").at("lrs").find("sweep"),
            nullptr);
}

// ---- ResultCache ------------------------------------------------------------

runtime::CachedEntry make_entry(const std::string& marker) {
  runtime::CachedEntry entry;
  entry.job = Json::object();
  entry.job.set("name", marker);
  entry.sizes = {{7, 1.25}, {8, 2.5}};
  return entry;
}

TEST(ResultCache, StoreLookupAndWarmLookup) {
  runtime::ResultCache cache;
  const std::string key = "nA-eB-o1";

  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  runtime::CachedEntry entry = make_entry("first");
  entry.eco.nets.push_back({10, {1.0}});
  entry.eco.output_cones = {10, 20};
  cache.store(key, std::move(entry));
  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->job.at("name").as_string(), "first");
  EXPECT_EQ(hit->sizes.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A warm lookup is the output-cone probe: the same circuit under other
  // options (a sibling key, every cone shared) finds the entry; the entry's
  // own key is excluded, and a circuit sharing no cone finds nothing.
  std::string base_key;
  ASSERT_NE(cache.lookup_eco({10, 20}, "nA-eB-o2", &base_key), nullptr);
  EXPECT_EQ(base_key, key);
  EXPECT_EQ(cache.lookup_eco({10, 20}, key), nullptr);
  EXPECT_EQ(cache.lookup_eco({30, 40}, "nC-eD-o1"), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);  // finding a seed is not an exact hit
}

TEST(ResultCache, EcoLookupsVoteOnConeOverlapAndCountNoHits) {
  runtime::ResultCache cache;
  const std::string k1 = "nA-eB-o1";
  const std::string k2 = "nC-eD-o1";
  auto with_cones = [](const std::string& marker,
                       std::vector<std::uint64_t> cones) {
    runtime::CachedEntry entry = make_entry(marker);
    entry.eco.nets.push_back({cones[0], {1.0}});
    entry.eco.output_cones = std::move(cones);
    return entry;
  };
  cache.store(k1, with_cones("one", {10, 20, 30}));
  cache.store(k2, with_cones("two", {10, 99}));

  // The near-miss probe picks the entry sharing the most output cones.
  std::string base_key;
  auto base = cache.lookup_eco({10, 20, 31}, "", &base_key);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->job.at("name").as_string(), "one");
  EXPECT_EQ(base_key, k1);
  // Excluding the winner (the request's own key) falls back to the runner-up.
  base = cache.lookup_eco({10, 20, 31}, k1, &base_key);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base_key, k2);
  // No shared cone at all: no base.
  EXPECT_EQ(cache.lookup_eco({7, 8}, "", nullptr), nullptr);

  // A client-named base resolves by exact key, and a missing one counts a
  // miss. No probe counts an exact hit: the base seeds a different job, and
  // the server counts the seeds it applies.
  ASSERT_NE(cache.lookup_eco_base(k1), nullptr);
  EXPECT_EQ(cache.lookup_eco_base("nZ-eZ-o9"), nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, InFlightDedupePublishAndAbandon) {
  runtime::ResultCache cache;
  const std::string key = "nA-eB-o1";

  std::shared_ptr<const runtime::CachedEntry> hit;
  EXPECT_EQ(cache.acquire(key, &hit, nullptr),
            runtime::ResultCache::Acquire::kOwner);

  // Identical job while the owner runs: registered as a follower.
  std::vector<std::shared_ptr<const runtime::CachedEntry>> seen;
  const auto follow = [&seen](std::shared_ptr<const runtime::CachedEntry> e) {
    seen.push_back(std::move(e));
  };
  EXPECT_EQ(cache.acquire(key, &hit, follow),
            runtime::ResultCache::Acquire::kFollower);
  EXPECT_EQ(cache.acquire(key, &hit, follow),
            runtime::ResultCache::Acquire::kFollower);
  EXPECT_TRUE(seen.empty());

  // Owner publishes: both followers fire with the entry, and later
  // acquires hit directly.
  cache.publish(key, make_entry("published"));
  ASSERT_EQ(seen.size(), 2u);
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(seen[0]->job.at("name").as_string(), "published");
  EXPECT_EQ(cache.acquire(key, &hit, nullptr),
            runtime::ResultCache::Acquire::kHit);
  ASSERT_NE(hit, nullptr);

  // Abandon path: follower of a failed owner is woken with nullptr so it
  // can re-run (and becomes the new owner on re-acquire).
  const std::string other = "nA-eB-o9";
  EXPECT_EQ(cache.acquire(other, &hit, nullptr),
            runtime::ResultCache::Acquire::kOwner);
  seen.clear();
  EXPECT_EQ(cache.acquire(other, &hit, follow),
            runtime::ResultCache::Acquire::kFollower);
  cache.abandon(other);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], nullptr);
  EXPECT_EQ(cache.acquire(other, &hit, nullptr),
            runtime::ResultCache::Acquire::kOwner);
}

TEST(ResultCache, DiskEntriesSurviveAcrossInstances) {
  const auto dir =
      std::filesystem::temp_directory_path() / "lrsizer_cache_test";
  std::filesystem::remove_all(dir);
  const std::string key = "nA-eB-o1";
  {
    runtime::ResultCache cache(dir.string());
    cache.store(key, make_entry("persisted"));
  }
  runtime::ResultCache fresh(dir.string());
  const auto hit = fresh.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->job.at("name").as_string(), "persisted");
  EXPECT_EQ(hit->sizes, make_entry("persisted").sizes);

  // A corrupt file is a miss, not a crash.
  {
    std::ofstream out(dir / "nBAD-eBAD-oBAD.json");
    out << "{not json";
  }
  runtime::ResultCache corrupt(dir.string());
  EXPECT_EQ(corrupt.lookup("nBAD-eBAD-oBAD"), nullptr);
  std::filesystem::remove_all(dir);
}

// ---- cache eviction ---------------------------------------------------------

TEST(CacheEviction, LruEvictsOldestFirstAndLookupRefreshes) {
  runtime::CacheLimits limits;
  limits.max_entries = 2;
  runtime::ResultCache cache("", limits);
  const std::string k1 = "nA-eA-o1";
  const std::string k2 = "nB-eB-o1";
  const std::string k3 = "nC-eC-o1";
  cache.store(k1, make_entry("one"));
  cache.store(k2, make_entry("two"));
  EXPECT_EQ(cache.stats().entries, 2u);
  // Touch k1: it becomes most-recent, so the third store evicts k2.
  ASSERT_NE(cache.lookup(k1), nullptr);
  cache.store(k3, make_entry("three"));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.lookup(k1), nullptr);
  EXPECT_EQ(cache.lookup(k2), nullptr) << "LRU entry must be the one evicted";
  EXPECT_NE(cache.lookup(k3), nullptr);
}

TEST(CacheEviction, MaxEntriesZeroStoresNothingButStillDedupes) {
  runtime::CacheLimits limits;
  limits.max_entries = 0;
  runtime::ResultCache cache("", limits);
  const std::string key = "nA-eA-o1";
  cache.store(key, make_entry("rejected"));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(key), nullptr);

  // In-flight dedupe is storage-free and must keep working at budget 0.
  std::shared_ptr<const runtime::CachedEntry> hit;
  EXPECT_EQ(cache.acquire(key, &hit, nullptr),
            runtime::ResultCache::Acquire::kOwner);
  std::shared_ptr<const runtime::CachedEntry> shared;
  EXPECT_EQ(cache.acquire(
                key, &hit,
                [&shared](std::shared_ptr<const runtime::CachedEntry> e) {
                  shared = std::move(e);
                }),
            runtime::ResultCache::Acquire::kFollower);
  cache.publish(key, make_entry("published"));
  // The follower shares the owner's result even though nothing was stored.
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->job.at("name").as_string(), "published");
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.acquire(key, &hit, nullptr),
            runtime::ResultCache::Acquire::kOwner)
      << "nothing completed may linger at max_entries=0";
  cache.abandon(key);
}

TEST(CacheEviction, MaxEntriesOneKeepsOnlyTheNewest) {
  runtime::CacheLimits limits;
  limits.max_entries = 1;
  runtime::ResultCache cache("", limits);
  const std::string k1 = "nA-eA-o1";
  const std::string k2 = "nB-eB-o1";
  cache.store(k1, make_entry("one"));
  cache.store(k2, make_entry("two"));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(k1), nullptr);
  ASSERT_NE(cache.lookup(k2), nullptr);
}

TEST(CacheEviction, ByteBudgetEvictsOldestFirstAndRejectsOversized) {
  // Calibrate one entry's accounted bytes with an unlimited cache (the
  // accounting covers key + serialized job + size pairs, so it is the same
  // for the equal-length keys below).
  const std::string k1 = "nA-eA-o1";
  const std::string k2 = "nB-eB-o1";
  const std::string k3 = "nC-eC-o1";
  std::size_t per_entry = 0;
  {
    runtime::ResultCache probe;
    probe.store(k1, make_entry("x"));
    per_entry = probe.stats().bytes;
    ASSERT_GT(per_entry, 0u);
  }

  runtime::CacheLimits limits;
  limits.max_bytes = per_entry * 2;  // room for two entries, not three
  runtime::ResultCache cache("", limits);
  cache.store(k1, make_entry("x"));
  cache.store(k2, make_entry("x"));
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.store(k3, make_entry("x"));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_LE(cache.stats().bytes, limits.max_bytes);
  EXPECT_EQ(cache.lookup(k1), nullptr) << "oldest entry pays for the third";
  EXPECT_NE(cache.lookup(k2), nullptr);
  EXPECT_NE(cache.lookup(k3), nullptr);

  // An entry that alone exceeds the budget is rejected outright and does
  // not wipe what is already cached.
  runtime::CacheLimits tiny;
  tiny.max_bytes = per_entry - 1;
  runtime::ResultCache small("", tiny);
  small.store(k1, make_entry("x"));
  EXPECT_EQ(small.stats().entries, 0u);
  EXPECT_EQ(small.stats().evictions, 1u);
  EXPECT_EQ(small.lookup(k1), nullptr);
}

TEST(CacheEviction, InFlightRegistrationsSurviveEvictionPressure) {
  runtime::CacheLimits limits;
  limits.max_entries = 1;
  runtime::ResultCache cache("", limits);
  const std::string inflight = "nA-eA-o1";
  const std::string k2 = "nB-eB-o1";
  const std::string k3 = "nC-eC-o1";

  std::shared_ptr<const runtime::CachedEntry> hit;
  ASSERT_EQ(cache.acquire(inflight, &hit, nullptr),
            runtime::ResultCache::Acquire::kOwner);
  std::shared_ptr<const runtime::CachedEntry> shared;
  ASSERT_EQ(cache.acquire(
                inflight, &hit,
                [&shared](std::shared_ptr<const runtime::CachedEntry> e) {
                  shared = std::move(e);
                }),
            runtime::ResultCache::Acquire::kFollower);

  // Hammer the completed side hard enough to evict everything evictable.
  cache.store(k2, make_entry("two"));
  cache.store(k3, make_entry("three"));
  EXPECT_GE(cache.stats().evictions, 1u);

  // The in-flight owner/follower pair is untouched: publishing still fires
  // the follower with the shared entry.
  cache.publish(inflight, make_entry("landed"));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->job.at("name").as_string(), "landed");
  ASSERT_NE(cache.lookup(inflight), nullptr)
      << "publish counts as most-recent, so it must survive the store";
}

TEST(CacheEviction, DiskEvictionRemovesFilesAndARestartSeesAMiss) {
  const auto dir =
      std::filesystem::temp_directory_path() / "lrsizer_cache_evict_test";
  std::filesystem::remove_all(dir);
  const std::string k1 = "nA-eA-o1";
  const std::string k2 = "nB-eB-o1";
  {
    runtime::CacheLimits limits;
    limits.max_entries = 1;
    runtime::ResultCache cache(dir.string(), limits);
    cache.store(k1, make_entry("one"));
    EXPECT_TRUE(std::filesystem::exists(dir / (k1 + ".json")));
    cache.store(k2, make_entry("two"));
    // Eviction unlinks the evicted entry's file, not just its memory slot.
    EXPECT_FALSE(std::filesystem::exists(dir / (k1 + ".json")));
    EXPECT_TRUE(std::filesystem::exists(dir / (k2 + ".json")));
  }
  // A fresh (unlimited) instance over the same directory: the evicted key
  // is gone for good, the survivor still answers.
  runtime::ResultCache fresh(dir.string());
  EXPECT_EQ(fresh.lookup(k1), nullptr);
  ASSERT_NE(fresh.lookup(k2), nullptr);
  std::filesystem::remove_all(dir);
}

// ---- run_batch + cache ------------------------------------------------------

TEST(BatchCache, DuplicateJobsDedupeBitIdentically) {
  // Three jobs, first two byte-identical: the duplicate must not re-run and
  // must share the owner's outcome bit for bit.
  auto make_jobs = [] {
    std::vector<runtime::BatchJob> jobs;
    for (int i = 0; i < 3; ++i) {
      runtime::BatchJob job;
      job.name = "job" + std::to_string(i);
      job.netlist = netlist::generate_circuit(tiny_spec(i < 2 ? 1 : 2));
      job.options = fast_options();
      jobs.push_back(std::move(job));
    }
    return jobs;
  };
  runtime::ResultCache cache;
  runtime::BatchOptions options;
  options.jobs = 1;
  options.cache = &cache;
  const auto batch = runtime::run_batch(make_jobs(), options);

  ASSERT_EQ(batch.jobs.size(), 3u);
  EXPECT_FALSE(batch.jobs[0].cache_hit);
  EXPECT_TRUE(batch.jobs[1].cache_hit);
  EXPECT_FALSE(batch.jobs[2].cache_hit);
  EXPECT_EQ(batch.num_cache_hits(), 1u);
  ASSERT_TRUE(batch.jobs[1].ok);
  ASSERT_TRUE(batch.jobs[1].flow.has_value());
  EXPECT_EQ(batch.jobs[0].flow->circuit.sizes(),
            batch.jobs[1].flow->circuit.sizes());
  EXPECT_EQ(batch.jobs[0].summary.iterations, batch.jobs[1].summary.iterations);
  EXPECT_EQ(batch.jobs[0].summary.final_metrics.area_um2,
            batch.jobs[1].summary.final_metrics.area_um2);
  const Json report = runtime::batch_json(batch);
  EXPECT_EQ(report.at("cache_hits").as_number(), 1.0);

  // Changed option: the same netlist is a different key, so nothing
  // dedupes in a fresh cache (no false sharing).
  runtime::ResultCache fresh;
  runtime::BatchOptions fresh_options;
  fresh_options.jobs = 1;
  fresh_options.cache = &fresh;
  auto tweaked = make_jobs();
  tweaked[1].options.bound_factors.noise = 0.17;
  const auto batch2 = runtime::run_batch(std::move(tweaked), fresh_options);
  EXPECT_EQ(batch2.num_cache_hits(), 0u)
      << "jobs with distinct options must all run";
}

TEST(BatchCache, CompletedEntriesAnswerAcrossBatches) {
  auto make_job = [] {
    runtime::BatchJob job;
    job.name = "repeat";
    job.netlist = netlist::generate_circuit(tiny_spec(1));
    job.options = fast_options();
    std::vector<runtime::BatchJob> jobs;
    jobs.push_back(std::move(job));
    return jobs;
  };
  runtime::ResultCache cache;
  runtime::BatchOptions options;
  options.jobs = 1;
  options.cache = &cache;
  const auto first = runtime::run_batch(make_job(), options);
  ASSERT_TRUE(first.jobs[0].ok);
  EXPECT_FALSE(first.jobs[0].cache_hit);

  const auto second = runtime::run_batch(make_job(), options);
  ASSERT_TRUE(second.jobs[0].ok);
  EXPECT_TRUE(second.jobs[0].cache_hit);
  // The served summary reproduces the original run field for field (their
  // job JSONs differ only in wall-clock seconds and the cache_hit marker).
  auto strip = [](Json j) {
    j.set("seconds", 0);
    j.set("cache_hit", false);
    return j.dump();
  };
  EXPECT_EQ(strip(runtime::job_json(first.jobs[0])),
            strip(runtime::job_json(second.jobs[0])));
}

// ---- protocol ---------------------------------------------------------------

TEST(Protocol, ParsesASizeRequestWithOverrides) {
  serve::Request request;
  const api::Status st = serve::parse_request(
      R"({"type":"size","id":"j1","input":{"profile":"c17"},"seed":3,)"
      R"("options":{"vectors":16,"noise_bound":0.2,"max_iterations":40},)"
      R"("progress":5,"sizes":true,"warm_start":[[7,1.5]]})",
      core::FlowOptions{}, &request);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(request.kind, serve::Request::Kind::kSize);
  EXPECT_EQ(request.size.id, "j1");
  EXPECT_EQ(request.size.job.seed, 3u);
  EXPECT_EQ(request.size.job.options.elab.seed, 3u);
  EXPECT_EQ(request.size.job.options.num_vectors, 16);
  EXPECT_EQ(request.size.job.options.bound_factors.noise, 0.2);
  EXPECT_EQ(request.size.job.options.ogws.max_iterations, 40);
  EXPECT_EQ(request.size.progress_every, 5);
  EXPECT_TRUE(request.size.want_sizes);
  ASSERT_EQ(request.size.job.warm.sizes.size(), 1u);
  EXPECT_EQ(request.size.job.warm.sizes[0].first, 7);
  EXPECT_GT(request.size.job.netlist.num_gates_logic(), 0);
}

TEST(Protocol, SweepOptionIsAcceptedAndIgnoredAndOtherValuesAreRefused) {
  // A client written against 0.10-0.15 may still send "sweep": either old
  // value parses to the options of a request without it. Any other value is
  // still refused, naming the option.
  const std::string prefix = R"({"type":"size","id":"a","input":{"profile":"c17"})";
  serve::Request plain;
  ASSERT_TRUE(serve::parse_request(prefix + "}", core::FlowOptions{}, &plain).ok());
  const Json options = runtime::canonical_options_json(plain.size.job.options);
  for (const std::string mode : {"dense", "worklist"}) {
    serve::Request request;
    const api::Status st = serve::parse_request(
        prefix + R"(,"options":{"sweep":")" + mode + R"("}})", core::FlowOptions{}, &request);
    ASSERT_TRUE(st.ok()) << mode << ": " << st.to_string();
    EXPECT_EQ(runtime::canonical_options_json(request.size.job.options), options) << mode;
  }
  serve::Request request;
  const api::Status refused = serve::parse_request(
      prefix + R"(,"options":{"sweep":"sparse"}})", core::FlowOptions{}, &request);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("\"sweep\""), std::string::npos) << refused.message();
}

TEST(Protocol, DefaultSeedFollowsTheServersElabSeed) {
  // No request "seed": generation and elaboration both use the server's
  // seed — never a mixed pair the equivalent `lrsizer run --seed` could
  // not produce.
  core::FlowOptions base;
  base.elab.seed = 7;
  serve::Request request;
  const api::Status st = serve::parse_request(
      R"({"type":"size","id":"a","input":{"profile":"c17"}})", base, &request);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(request.size.job.seed, 7u);
  EXPECT_EQ(request.size.job.options.elab.seed, 7u);
}

TEST(Protocol, EcoBaseParsesAndExcludesWarmStart) {
  serve::Request request;
  const core::FlowOptions base;
  ASSERT_TRUE(serve::parse_request(
                  R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                  R"("eco_base":"nA-eB-o1"})",
                  base, &request)
                  .ok());
  EXPECT_EQ(request.size.eco_base, "nA-eB-o1");

  // Must be a non-empty string.
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("eco_base":""})",
                   base, &request)
                   .ok());
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("eco_base":7})",
                   base, &request)
                   .ok());
  // An ECO seed is a warm start: the two are mutually exclusive, in either
  // key order.
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("warm_start":[[0,1.0]],"eco_base":"nA-eB-o1"})",
                   base, &request)
                   .ok());
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("eco_base":"nA-eB-o1","warm_start":[[0,1.0]]})",
                   base, &request)
                   .ok());
}

TEST(Protocol, RejectsMalformedRequests) {
  serve::Request request;
  const core::FlowOptions base;
  EXPECT_FALSE(serve::parse_request("not json", base, &request).ok());
  EXPECT_FALSE(serve::parse_request(R"({"type":"resize","id":"a"})", base,
                                    &request).ok());
  EXPECT_FALSE(serve::parse_request(R"({"type":"size"})", base, &request).ok());
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c9999"}})",
                   base, &request)
                   .ok());
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("options":{"bogus_knob":1}})",
                   base, &request)
                   .ok());
  // Validation catches consistent-but-impossible options too.
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("options":{"vectors":-4}})",
                   base, &request)
                   .ok());
  // Out-of-range numbers are rejected before any narrowing cast (the cast
  // would be undefined; the ASan+UBSan CI job runs this suite).
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("seed":-1})",
                   base, &request)
                   .ok());
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("options":{"vectors":1e300}})",
                   base, &request)
                   .ok());
  // Fractional values must be rejected, not silently truncated: the fuzz
  // battery caught "seed":0.5 slipping through checked_integer as seed 0.
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("seed":0.5})",
                   base, &request)
                   .ok());
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("options":{"vectors":1.5}})",
                   base, &request)
                   .ok());
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("progress":1e12})",
                   base, &request)
                   .ok());
  EXPECT_FALSE(serve::parse_request(
                   R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                   R"("warm_start":[[-2,1.0]]})",
                   base, &request)
                   .ok());
  // cancel and shutdown parse.
  ASSERT_TRUE(
      serve::parse_request(R"({"type":"cancel","id":"a"})", base, &request).ok());
  EXPECT_EQ(request.kind, serve::Request::Kind::kCancel);
  EXPECT_EQ(request.cancel_id, "a");
  ASSERT_TRUE(serve::parse_request(R"({"type":"shutdown"})", base, &request).ok());
  EXPECT_EQ(request.kind, serve::Request::Kind::kShutdown);
}

// ---- stats ------------------------------------------------------------------

TEST(Stats, HistogramPercentilesInterpolateWithinBuckets) {
  obs::Histogram h({0.1, 0.5, 2.5});
  EXPECT_EQ(serve::histogram_percentile(h, 50.0), 0.0)
      << "empty histogram reports 0";
  // 10 observations in the (0, 0.1] bucket, 10 in (0.1, 0.5].
  for (int i = 0; i < 10; ++i) h.observe(0.05);
  for (int i = 0; i < 10; ++i) h.observe(0.3);
  // rank(p50) = 10 = the first bucket's last observation → its upper bound.
  EXPECT_DOUBLE_EQ(serve::histogram_percentile(h, 50.0), 0.1);
  // rank(p99) = 20 = the second bucket's last observation.
  EXPECT_DOUBLE_EQ(serve::histogram_percentile(h, 99.0), 0.5);
  // rank(p25) = 5: halfway through the first bucket by interpolation.
  EXPECT_DOUBLE_EQ(serve::histogram_percentile(h, 25.0), 0.05);
  // p0 maps to rank 1 — strictly positive once anything was observed (the
  // serve soak asserts p99 >= p50 > 0 after a non-empty run).
  EXPECT_DOUBLE_EQ(serve::histogram_percentile(h, 0.0), 0.01);

  // Observations in the +Inf overflow bucket report the largest finite
  // bound — the Prometheus histogram_quantile convention.
  obs::Histogram over({0.1, 0.5});
  over.observe(9.0);
  EXPECT_DOUBLE_EQ(serve::histogram_percentile(over, 99.0), 0.5);
}

TEST(Stats, StatsRequestParsesWithOptionalIdAndResponseRoundTrips) {
  serve::Request request;
  const core::FlowOptions base;
  ASSERT_TRUE(serve::parse_request(R"({"type":"stats"})", base, &request).ok());
  EXPECT_EQ(request.kind, serve::Request::Kind::kStats);
  EXPECT_TRUE(request.stats_id.empty());
  ASSERT_TRUE(
      serve::parse_request(R"({"type":"stats","id":"q"})", base, &request).ok());
  EXPECT_EQ(request.stats_id, "q");
  EXPECT_FALSE(
      serve::parse_request(R"({"type":"stats","id":7})", base, &request).ok());

  serve::StatsSnapshot snapshot;
  snapshot.accepted = 3;
  snapshot.cache_lookup_hits = 1;
  snapshot.cache_lookup_misses = 1;
  snapshot.latency_p50_s = 0.25;
  EXPECT_DOUBLE_EQ(serve::cache_hit_rate(snapshot), 0.5);
  const Json j = serve::stats_json("q", snapshot);
  EXPECT_EQ(j.at("type").as_string(), "stats");
  EXPECT_EQ(j.at("id").as_string(), "q");
  EXPECT_EQ(j.at("jobs").at("accepted").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(j.at("cache").at("hit_rate").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(j.at("latency").at("p50_ms").as_number(), 250.0);
  EXPECT_EQ(j.at("cache").at("mode").as_string(), "memory");
  // Without an id the field is omitted, not emitted empty.
  EXPECT_EQ(serve::stats_json("", snapshot).find("id"), nullptr);

  // The --stats-dump text renders the same counters.
  const std::string text = serve::format_stats_text(snapshot);
  EXPECT_NE(text.find("accepted=3"), std::string::npos);
  EXPECT_NE(text.find("hit_rate=0.500"), std::string::npos);
  EXPECT_NE(text.find("p50_ms=250.000"), std::string::npos);
}

// ---- server -----------------------------------------------------------------

/// Thread-safe response collector: the test-side Sink.
struct Collector {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Json> lines;

  serve::Server::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(Json::parse(line));
      cv.notify_all();
    };
  }

  std::vector<Json> of_type(const std::string& type) {
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<Json> matching;
    for (const Json& line : lines) {
      if (line.at("type").as_string() == type) matching.push_back(line);
    }
    return matching;
  }

  /// Wait until at least `n` responses of `type` arrived (fails the test on
  /// timeout rather than hanging).
  bool wait_for(const std::string& type, std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(60), [&] {
      std::size_t count = 0;
      for (const Json& line : lines) {
        if (line.at("type").as_string() == type) ++count;
      }
      return count >= n;
    });
  }
};

/// The stdin transport minus its fds, for one client: hello, one request per
/// line of `in` until a shutdown, then drain.
void serve_lines(serve::Server& server, serve::Server::ClientId client,
                 std::istream& in) {
  server.hello(client);
  std::string line;
  while (std::getline(in, line) && server.handle_line(client, line)) {
  }
  server.drain();
}

/// A Collector whose sink parks the worker that delivers its first
/// `progress` line until release(): the job emitting it stays in flight,
/// mid-OGWS, for exactly as long as the test needs, however fast it would
/// converge. Server::emit holds the client's mutex while it calls the sink,
/// so nothing else reaches this client while the worker is parked. A line
/// that needs an answer must come from another client; a cancel of an active
/// job answers nothing, so it may come from this one. With jobs = 1 the
/// parked worker also keeps every later job queued, as long as the parked
/// job's circuit differs from theirs (an identical job would dedupe onto the
/// parked run as a follower instead).
struct HoldingCollector : Collector {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool holding = false;  // a worker has parked (set once)
  bool released = false;

  serve::Server::Sink sink() {
    return [this, record = Collector::sink()](const std::string& line) {
      record(line);
      if (Json::parse(line).at("type").as_string() != "progress") return;
      std::unique_lock<std::mutex> lock(gate_mutex);
      if (holding) return;
      holding = true;
      // Bounded, so a test that fails before release() cannot hang.
      gate_cv.wait_for(lock, std::chrono::seconds(60), [&] { return released; });
    };
  }

  /// Let the parked worker go on (and any later progress line pass).
  void release() {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
    gate_cv.notify_all();
  }
};

std::string size_request(const std::string& id, const std::string& profile,
                         const std::string& extra = "") {
  return R"({"type":"size","id":")" + id + R"(","input":{"profile":")" +
         profile + R"("},"options":{"vectors":8})" + extra + "}";
}

TEST(CacheKey, SolverRevisionMovesTheKeysThePreviousReleasePersisted) {
  // 0.14 changed the sized outputs of unchanged options (the step0/k^¼ step
  // and the weak-duality stop), 0.16 did again (the one-sweep LRS), and so
  // did 0.17 (the step scale that follows the dual). An entry an older
  // server persisted under --cache-dir must miss, or a hit
  // would replay an answer this solver does not give. The circuit parts of
  // the key stay; the options part carries the solver revision and moves.
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  ASSERT_TRUE(server.handle_line(client, R"({"type":"size","id":"a","input":{"profile":"c17"}})"));
  server.drain();
  const auto accepted = collector.of_type("accepted");
  ASSERT_EQ(accepted.size(), 1u);
  const std::string key = accepted[0].at("key").as_string();
  const std::string key_0_13 = "n0bca2e6c9d14d0d5-e35d65159b012b322-oc14f9a43d7c4bebf";
  const std::string key_0_15 = "n0bca2e6c9d14d0d5-e35d65159b012b322-o22872c6d9630f031";
  const std::string key_0_16 = "n0bca2e6c9d14d0d5-e35d65159b012b322-o24419d11ef3d275f";
  for (const std::string& old_key : {key_0_13, key_0_15, key_0_16}) {
    EXPECT_EQ(key.substr(0, key.rfind("-o")), old_key.substr(0, old_key.rfind("-o")));
    EXPECT_NE(key, old_key);
  }
  EXPECT_NE(runtime::canonical_options_json(core::FlowOptions{}).find("solver_revision"),
            nullptr);
}

TEST(Server, JsonlRoundTripMatchesADirectRun) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  options.version = "test";
  {
    serve::Server server(options);
    const auto client = server.add_client(collector.sink());
    std::istringstream in(size_request("a", "c17") + "\n");
    serve_lines(server, client, in);
  }
  ASSERT_EQ(collector.of_type("hello").size(), 1u);
  EXPECT_EQ(collector.of_type("hello")[0].at("schema").as_string(),
            "lrsizer-serve-v3");
  ASSERT_EQ(collector.of_type("accepted").size(), 1u);
  const auto results = collector.of_type("result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].at("cache_hit").as_bool());

  // The served job object equals a direct run_job report byte for byte
  // (wall-clock fields aside).
  runtime::BatchJob job;
  job.name = "a";
  job.netlist = netlist::parse_bench_string(netlist::kIscas85C17);
  core::FlowOptions direct_options;
  direct_options.num_vectors = 8;
  job.options = direct_options;
  const auto outcome = runtime::run_job(std::move(job));
  ASSERT_TRUE(outcome.ok);
  auto strip = [](Json j) {
    j.set("seconds", 0);
    j.set("stage1_seconds", 0);
    j.set("stage2_seconds", 0);
    return j.dump();
  };
  EXPECT_EQ(strip(results[0].at("job")), strip(runtime::job_json(outcome)));
}

TEST(Server, DuplicateJobsAnswerFromCacheByteIdentically) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  {
    serve::Server server(options);
    const auto client = server.add_client(collector.sink());
    std::istringstream in(size_request("a", "c17", R"(,"sizes":true)") + "\n" +
                          size_request("b", "c17", R"(,"sizes":true)") + "\n" +
                          size_request("c", "c17",
                                       R"(,"sizes":true,"seed":9)") +
                          "\n");
    serve_lines(server, client, in);
  }
  const auto results = collector.of_type("result");
  ASSERT_EQ(results.size(), 3u);
  Json by_id[3];
  for (const Json& r : results) {
    by_id[r.at("id").as_string()[0] - 'a'] = r;
  }
  // Exactly the duplicate is a hit, with a byte-identical job payload
  // (including its sizes).
  EXPECT_FALSE(by_id[0].at("cache_hit").as_bool());
  EXPECT_TRUE(by_id[1].at("cache_hit").as_bool());
  EXPECT_EQ(by_id[0].at("job").dump(), by_id[1].at("job").dump());
  EXPECT_EQ(by_id[0].at("sizes").dump(), by_id[1].at("sizes").dump());
  // Different seed = different netlist: a miss that re-runs.
  EXPECT_FALSE(by_id[2].at("cache_hit").as_bool());
  EXPECT_NE(by_id[0].at("job").dump(), by_id[2].at("job").dump());
}

TEST(Server, ThreadsOptionIsAcceptedAndIgnored) {
  // Protocol v3 clients may still send "threads". No int32 value may reach a
  // thread constructor, where a huge count would abort the whole server, or
  // split the cache: the request answers exactly like the same request
  // without the option.
  auto serve_one = [](const std::string& request_options) {
    Collector collector;
    serve::ServerOptions options;
    options.jobs = 1;
    {
      serve::Server server(options);
      const auto client = server.add_client(collector.sink());
      std::istringstream in(R"({"type":"size","id":"a","input":{"profile":"c17"},)"
                            R"("options":)" + request_options + "}\n");
      serve_lines(server, client, in);
    }
    EXPECT_TRUE(collector.of_type("error").empty());
    const auto accepted = collector.of_type("accepted");
    const auto results = collector.of_type("result");
    EXPECT_EQ(accepted.size(), 1u);
    EXPECT_EQ(results.size(), 1u);
    if (accepted.size() != 1u || results.size() != 1u) {
      return std::pair<std::string, std::string>();
    }
    Json job = results[0].at("job");
    job.set("seconds", 0);
    job.set("stage1_seconds", 0);
    job.set("stage2_seconds", 0);
    return std::pair(accepted[0].at("key").as_string(), job.dump());
  };
  const auto plain = serve_one(R"({"vectors":8})");
  const auto huge = serve_one(R"({"vectors":8,"threads":2147483647})");
  ASSERT_FALSE(plain.first.empty());
  EXPECT_EQ(huge.first, plain.first);
  EXPECT_EQ(huge.second, plain.second);
}

/// Inline-.bench size request (the ECO flow needs two *different* netlists
/// that share structure, which profile inputs cannot express). A
/// `noise_bound` of 0 keeps the server default.
std::string bench_request(const std::string& id,
                          const netlist::LogicNetlist& netlist,
                          const std::string& eco_base = "",
                          double noise_bound = 0.0) {
  Json request = Json::object();
  request.set("type", "size");
  request.set("id", id);
  Json input = Json::object();
  input.set("bench", netlist::to_bench_string(netlist));
  request.set("input", input);
  Json options = Json::object();
  options.set("vectors", 8);
  if (noise_bound > 0.0) options.set("noise_bound", noise_bound);
  request.set("options", options);
  request.set("sizes", true);
  if (!eco_base.empty()) request.set("eco_base", eco_base);
  return request.dump();
}

TEST(Server, EcoBaseSeedsFromTheNamedBaseAndRepeatsAreByteIdentical) {
  const netlist::LogicNetlist base =
      netlist::parse_bench_string(netlist::kIscas85C17);
  // One-gate ECO: flip the op of the last primary-output NAND. Same arity,
  // so the base's multiplier state transfers too.
  netlist::LogicNetlist edited;
  std::int32_t edit = -1;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    if (base.is_primary_output(g) &&
        base.gate(g).op == netlist::LogicOp::kNand) {
      edit = g;
    }
  }
  ASSERT_GE(edit, 0);
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    const netlist::LogicGate& gate = base.gate(g);
    if (gate.op == netlist::LogicOp::kInput) {
      edited.add_input(gate.name);
    } else {
      edited.add_gate(gate.name,
                      g == edit ? netlist::LogicOp::kNor : gate.op,
                      gate.fanin);
    }
    if (base.is_primary_output(g)) edited.mark_output(g);
  }
  edited.finalize();

  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());

  // Cold base run; its accepted "key" is the handle ECO clients name.
  ASSERT_TRUE(server.handle_line(client, bench_request("a", base)));
  server.drain();
  const auto accepted = collector.of_type("accepted");
  ASSERT_EQ(accepted.size(), 1u);
  const std::string key = accepted[0].at("key").as_string();
  ASSERT_FALSE(key.empty());

  // The revision, warm-started from the named base — then resubmitted.
  ASSERT_TRUE(server.handle_line(client, bench_request("b", edited, key)));
  server.drain();
  ASSERT_TRUE(server.handle_line(client, bench_request("c", edited, key)));
  server.drain();
  ASSERT_TRUE(server.handle_line(client, R"({"type":"stats","id":"s"})"));
  server.drain();

  const auto results = collector.of_type("result");
  ASSERT_EQ(results.size(), 3u);
  std::map<std::string, Json> by_id;
  for (const Json& r : results) by_id[r.at("id").as_string()] = r;

  // The base ran cold, without an eco block.
  EXPECT_FALSE(by_id.at("a").at("cache_hit").as_bool());
  EXPECT_EQ(by_id.at("a").at("job").find("eco"), nullptr);

  // The ECO job reports its provenance inside the job object.
  const Json& eco_job = by_id.at("b").at("job");
  EXPECT_FALSE(by_id.at("b").at("cache_hit").as_bool());
  const Json* eco = eco_job.find("eco");
  ASSERT_NE(eco, nullptr);
  EXPECT_EQ(eco->at("base_hash").as_string(), key);
  EXPECT_GT(eco->at("reused_nodes").as_number(), 0.0);
  EXPECT_GT(eco->at("dirty_nodes").as_number(), 0.0);

  // Resubmitting the identical ECO request answers from the cache with a
  // byte-identical job payload — eco block included.
  EXPECT_TRUE(by_id.at("c").at("cache_hit").as_bool());
  EXPECT_EQ(by_id.at("c").at("job").dump(), eco_job.dump());
  EXPECT_EQ(by_id.at("c").at("sizes").dump(), by_id.at("b").at("sizes").dump());

  // Stats: one ECO-seeded job, one exact hit, disjoint kinds.
  const auto stats = collector.of_type("stats");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].at("jobs").at("eco").as_number(), 1.0);
  EXPECT_EQ(stats[0].at("jobs").at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(stats[0].at("cache").at("hits").as_number(), 1.0);
  EXPECT_EQ(stats[0].at("cache").at("eco_hits").as_number(), 1.0);
  EXPECT_EQ(stats[0].at("cache").at("warm_hits").as_number(), 0.0);
}

/// The --cache-warm script on c17: a base at the default noise bound (where
/// c17 does not converge), the same bench at noise bound 0.2 (where it
/// does), and a repeat of the second request. The seed probe runs at
/// admission, so each request waits for the one before it.
struct WarmScript {
  std::map<std::string, Json> results;  ///< by id
  std::string base_key;                 ///< request "a"'s accepted key
  Json stats;
};

WarmScript run_warm_script(bool cache_warm) {
  const netlist::LogicNetlist c17 = netlist::parse_bench_string(netlist::kIscas85C17);
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  options.cache_warm = cache_warm;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  for (const std::string& line :
       {bench_request("a", c17), bench_request("b", c17, "", 0.2),
        bench_request("c", c17, "", 0.2), std::string(R"({"type":"stats","id":"s"})")}) {
    EXPECT_TRUE(server.handle_line(client, line));
    server.drain();
  }
  WarmScript script;
  for (const Json& r : collector.of_type("result")) {
    script.results[r.at("id").as_string()] = r;
  }
  for (const Json& a : collector.of_type("accepted")) {
    if (a.at("id").as_string() == "a") script.base_key = a.at("key").as_string();
  }
  const auto stats = collector.of_type("stats");
  if (stats.size() == 1u) script.stats = stats[0];
  return script;
}

TEST(Server, CacheWarmSeedsTheSameCircuitAsAnEcoWithNoDirtyGates) {
  const WarmScript script = run_warm_script(/*cache_warm=*/true);
  ASSERT_EQ(script.results.size(), 3u);
  ASSERT_FALSE(script.base_key.empty());
  EXPECT_EQ(script.results.at("a").at("job").find("eco"), nullptr);

  // The new bound is seeded from the base: every gate clean, provenance in
  // the job object, and the seeded run still converges within feas_tol.
  const Json& warm_job = script.results.at("b").at("job");
  EXPECT_FALSE(script.results.at("b").at("cache_hit").as_bool());
  const Json* eco = warm_job.find("eco");
  ASSERT_NE(eco, nullptr);
  EXPECT_EQ(eco->at("base_hash").as_string(), script.base_key);
  EXPECT_EQ(eco->at("dirty_nodes").as_number(), 0.0);
  EXPECT_GT(eco->at("reused_nodes").as_number(), 0.0);
  EXPECT_TRUE(warm_job.at("converged").as_bool());
  EXPECT_LE(warm_job.at("max_violation").as_number(), core::OgwsOptions{}.feas_tol);

  // The repeat is an exact hit with a byte-identical job payload.
  EXPECT_TRUE(script.results.at("c").at("cache_hit").as_bool());
  EXPECT_EQ(script.results.at("c").at("job").dump(), warm_job.dump());

  // One seed with zero dirty gates: a warm hit, not an ECO hit.
  ASSERT_TRUE(script.stats.is_object());
  EXPECT_EQ(script.stats.at("cache").at("warm_hits").as_number(), 1.0);
  EXPECT_EQ(script.stats.at("cache").at("eco_hits").as_number(), 0.0);
  EXPECT_EQ(script.stats.at("jobs").at("eco").as_number(), 1.0);
}

TEST(Server, WithoutCacheWarmTheSameCircuitRunsCold) {
  const WarmScript script = run_warm_script(/*cache_warm=*/false);
  ASSERT_EQ(script.results.size(), 3u);
  EXPECT_EQ(script.results.at("b").at("job").find("eco"), nullptr);
  EXPECT_TRUE(script.results.at("c").at("cache_hit").as_bool());
  ASSERT_TRUE(script.stats.is_object());
  EXPECT_EQ(script.stats.at("cache").at("warm_hits").as_number(), 0.0);
  EXPECT_EQ(script.stats.at("jobs").at("eco").as_number(), 0.0);
}

TEST(Server, CancelMidJobYieldsACancelledResponse) {
  HoldingCollector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  // The job parks in its first progress line, mid-OGWS, so the cancel lands
  // before it can converge (c432 takes ~25 iterations). Cancelling an active
  // job answers nothing, so it may come from the parked client.
  ASSERT_TRUE(server.handle_line(client, size_request("x", "c432", R"(,"progress":1)")));
  ASSERT_TRUE(collector.wait_for("progress", 1)) << "job never started";
  ASSERT_TRUE(server.handle_line(client, R"({"type":"cancel","id":"x"})"));
  collector.release();
  server.drain();

  const auto cancelled = collector.of_type("cancelled");
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0].at("id").as_string(), "x");
  // The cancel landed mid-OGWS, so the partial result rides along.
  ASSERT_NE(cancelled[0].find("job"), nullptr);
  EXPECT_TRUE(cancelled[0].at("job").at("cancelled").as_bool());
  EXPECT_TRUE(collector.of_type("result").empty());
  EXPECT_EQ(server.stats_snapshot().cancelled, 1u);
}

TEST(Server, ShutdownStopsReadingFurtherRequests) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  {
    serve::Server server(options);
    const auto client = server.add_client(collector.sink());
    std::istringstream in(size_request("a", "c17") + "\n" +
                          R"({"type":"shutdown"})" + "\n" +
                          size_request("late", "c17") + "\n");
    serve_lines(server, client, in);
  }
  // "a" completes (shutdown drains in-flight work); "late" is never read.
  ASSERT_EQ(collector.of_type("result").size(), 1u);
  EXPECT_EQ(collector.of_type("accepted").size(), 1u);
}

TEST(Server, MalformedAndUnknownRequestsGetErrorResponses) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  {
    serve::Server server(options);
    const auto client = server.add_client(collector.sink());
    std::istringstream in(std::string("this is not json\n") +
                          R"({"type":"cancel","id":"ghost"})" + "\n" +
                          size_request("a", "c9999") + "\n");
    serve_lines(server, client, in);
  }
  const auto errors = collector.of_type("error");
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_TRUE(collector.of_type("result").empty());
  EXPECT_EQ(collector.lines.size(), 4u);  // hello + 3 errors
  // Whenever the line parsed far enough to carry an id, the error echoes
  // it; a fully unparseable line cannot.
  EXPECT_EQ(errors[0].find("id"), nullptr);
  EXPECT_EQ(errors[1].at("id").as_string(), "ghost");
  EXPECT_EQ(errors[2].at("id").as_string(), "a");
}

TEST(Server, BackpressureRejectsBeyondMaxPending) {
  Collector collector;
  HoldingCollector holder;
  serve::ServerOptions options;
  options.jobs = 1;
  options.max_pending = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  // First job occupies the single pending slot, parked mid-OGWS on another
  // client so that this client's rejection can be emitted...
  const auto held = server.add_client(holder.sink());
  ASSERT_TRUE(
      server.handle_line(held, size_request("a", "c432", R"(,"progress":1)")));
  ASSERT_TRUE(holder.wait_for("progress", 1));
  // ...so the second is rejected with a backpressure error.
  ASSERT_TRUE(server.handle_line(client, size_request("b", "c17")));
  const auto errors = collector.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("id").as_string(), "b");
  EXPECT_NE(errors[0].at("message").as_string().find("backpressure"),
            std::string::npos);
  // v3: machine-readable rejection — an "overloaded" code plus a
  // retry_after_ms hint, so clients can back off without parsing prose.
  EXPECT_EQ(errors[0].at("code").as_string(), "overloaded");
  EXPECT_GE(errors[0].at("retry_after_ms").as_number(), 50.0);
  EXPECT_LE(errors[0].at("retry_after_ms").as_number(), 10000.0);
  ASSERT_TRUE(server.handle_line(held, R"({"type":"cancel","id":"a"})"));
  holder.release();
  server.drain();
  // Shed jobs are tallied separately from ordinary errors.
  EXPECT_EQ(server.stats_snapshot().shed, 1u);
  EXPECT_EQ(server.stats_snapshot().errors, 1u);
}

TEST(Server, PerClientCapShedsTheGreedyClientNotItsNeighbor) {
  serve::ServerOptions options;
  options.jobs = 1;
  options.max_pending_per_client = 1;
  HoldingCollector parked;
  Collector greedy, modest;
  serve::Server server(options);
  const auto cp = server.add_client(parked.sink());
  const auto cg = server.add_client(greedy.sink());
  const auto cm = server.add_client(modest.sink());
  // A third client's job parks the only worker, so every job below stays
  // pending. (The greedy client's own job cannot be the parked one: its
  // shed answer needs the client's sink.)
  ASSERT_TRUE(
      server.handle_line(cp, size_request("p", "c880", R"(,"progress":1)")));
  ASSERT_TRUE(parked.wait_for("progress", 1)) << "job never started";
  // The greedy client fills its one slot...
  ASSERT_TRUE(server.handle_line(cg, size_request("a", "c432")));
  // ...so its second request is shed, while the other client's request is
  // admitted even though the global queue is not empty.
  ASSERT_TRUE(server.handle_line(cg, size_request("b", "c17")));
  ASSERT_TRUE(server.handle_line(cm, size_request("x", "c17")));
  const auto errors = greedy.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("id").as_string(), "b");
  EXPECT_EQ(errors[0].at("code").as_string(), "overloaded");
  EXPECT_TRUE(modest.of_type("error").empty());
  ASSERT_EQ(modest.of_type("accepted").size(), 1u);
  ASSERT_TRUE(server.handle_line(cg, R"({"type":"cancel","id":"a"})"));
  parked.release();
  server.drain();
  // With the pending job gone the greedy client's slot is free again.
  ASSERT_TRUE(server.handle_line(cg, size_request("c", "c17")));
  server.drain();
  ASSERT_EQ(greedy.of_type("result").size(), 1u);
  ASSERT_EQ(modest.of_type("result").size(), 1u);
}

TEST(Server, QueueCostBudgetAdmitsByNodeCountNotJobCount) {
  serve::ServerOptions options;
  options.jobs = 1;
  // A budget smaller than any job: the empty-queue rule still admits the
  // first request (otherwise big jobs could never run at all), and the
  // budget then sheds everything behind it.
  options.max_queue_cost = 1;
  HoldingCollector holder;
  Collector collector;
  serve::Server server(options);
  const auto held = server.add_client(holder.sink());
  const auto client = server.add_client(collector.sink());
  // The first job parks mid-OGWS on another client, so that this client's
  // rejection can be emitted while it is in flight.
  ASSERT_TRUE(
      server.handle_line(held, size_request("a", "c432", R"(,"progress":1)")));
  ASSERT_TRUE(holder.wait_for("progress", 1)) << "job never started";
  ASSERT_TRUE(server.handle_line(client, size_request("b", "c17")));
  const auto errors = collector.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("id").as_string(), "b");
  EXPECT_EQ(errors[0].at("code").as_string(), "overloaded");
  EXPECT_NE(errors[0].at("message").as_string().find("cost"),
            std::string::npos);
  EXPECT_GT(errors[0].at("retry_after_ms").as_number(), 0.0);
  ASSERT_TRUE(server.handle_line(held, R"({"type":"cancel","id":"a"})"));
  holder.release();
  server.drain();
  EXPECT_EQ(server.stats_snapshot().shed, 1u);
}

/// A size request for a generated 4.8k-gate circuit of logic depth 1000 at
/// 16 vectors, which runs for seconds: in a Release build on a 4-core x86
/// VM it converges after 1361 OGWS iterations at ~2.7–3.0 s. `extra` is
/// appended inside the request object.
std::string long_deep_request(const std::string& id, const std::string& extra = "") {
  netlist::GeneratorSpec spec;
  spec.num_gates = 4832;
  spec.num_wires = 9600;
  spec.num_inputs = 32;
  spec.num_outputs = 32;
  spec.depth = 1000;
  Json input = Json::object();
  input.set("bench", netlist::to_bench_string(netlist::generate_circuit(spec)));
  return R"({"type":"size","id":")" + id + R"(","input":)" + input.dump() +
         R"(,"options":{"vectors":16,"max_iterations":2000})" + extra + "}";
}

TEST(Server, DeadlineCutsAJobToAPartialResultMarkedTimeout) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  // The deep circuit runs ~4.5-5x the deadline. Where the deadline lands
  // depends on machine speed: mid-OGWS (the common case, answered with a
  // timeout-marked partial result) or still in elaboration under heavy
  // slowdown (answered with a "deadline" error). Both shapes are the
  // contract; both tally as a timeout, never as a cancellation.
  ASSERT_TRUE(server.handle_line(client, long_deep_request("x", R"(,"deadline_ms":600)")));
  server.drain();

  const auto results = collector.of_type("result");
  if (!results.empty()) {
    // The deadline fired mid-OGWS: the job answers with a *result* carrying
    // its best partial solution (KKT state included), marked timeout.
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].at("id").as_string(), "x");
    EXPECT_TRUE(results[0].at("timeout").as_bool());
    EXPECT_FALSE(results[0].at("cache_hit").as_bool());
    EXPECT_TRUE(results[0].at("job").at("cancelled").as_bool());
    EXPECT_GT(results[0].at("job").at("iterations").as_number(), 0.0);
  } else {
    // The deadline beat the sizing stage: no partial exists, so the job
    // answers with a machine-readable deadline error instead.
    const auto errors = collector.of_type("error");
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].at("id").as_string(), "x");
    EXPECT_EQ(errors[0].at("code").as_string(), "deadline");
  }
  EXPECT_TRUE(collector.of_type("cancelled").empty());
  EXPECT_EQ(server.stats_snapshot().timeouts, 1u);
  EXPECT_EQ(server.stats_snapshot().cancelled, 0u);

  // The server is fully alive afterwards — and the partial was never
  // cached, so the same job re-runs rather than serving a truncated
  // answer.
  ASSERT_TRUE(server.handle_line(client, size_request("y", "c17")));
  server.drain();
  const auto after = collector.of_type("result");
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.back().at("id").as_string(), "y");
  // Untimed results never carry the timeout key (byte-identity with v2).
  EXPECT_EQ(after.back().find("timeout"), nullptr);
}

TEST(Server, DefaultDeadlineAppliesWhenTheRequestNamesNone) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  options.default_deadline_ms = 300;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  // The deep circuit runs ~9x the default deadline. (c6288 at 256 vectors,
  // used before, now converges in ~0.3 s and raced the deadline.)
  ASSERT_TRUE(server.handle_line(client, long_deep_request("x")));
  server.drain();
  // Timeout-marked partial or deadline error — either way the server
  // default cut the job and tallied it (see DeadlineCutsAJob... above).
  const auto results = collector.of_type("result");
  if (!results.empty()) {
    EXPECT_TRUE(results[0].at("timeout").as_bool());
  } else {
    const auto errors = collector.of_type("error");
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].at("code").as_string(), "deadline");
  }
  EXPECT_EQ(server.stats_snapshot().timeouts, 1u);

  // An explicit "deadline_ms": 0 opts out of the server default: c17
  // completes normally well within any deadline race.
  ASSERT_TRUE(server.handle_line(client, size_request("y", "c17", R"(,"deadline_ms":0)")));
  server.drain();
  const auto after = collector.of_type("result");
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.back().at("id").as_string(), "y");
  EXPECT_EQ(after.back().find("timeout"), nullptr);
}

TEST(Server, DeadlinesPastTheClocksRangeMeanNone) {
  // 1e13 ms and 2^53 ms are inside the protocol's [0, 2^53], but added to
  // the steady clock's int64 nanoseconds they overflow. Per request and as
  // the server default they mean no deadline: c17 answers a normal result.
  for (const std::int64_t ms : {std::int64_t{10000000000000}, std::int64_t{1} << 53}) {
    for (const bool as_default : {false, true}) {
      Collector collector;
      serve::ServerOptions options;
      options.jobs = 1;
      if (as_default) options.default_deadline_ms = ms;
      serve::Server server(options);
      const auto client = server.add_client(collector.sink());
      const std::string extra =
          as_default ? "" : R"(,"deadline_ms":)" + std::to_string(ms);
      ASSERT_TRUE(server.handle_line(client, size_request("a", "c17", extra)));
      server.drain();
      const std::string label = std::to_string(ms) + (as_default ? " default" : "");
      const auto results = collector.of_type("result");
      ASSERT_EQ(results.size(), 1u) << label << ": "
                                    << collector.of_type("error").front().dump();
      EXPECT_EQ(results[0].find("timeout"), nullptr) << label;
      EXPECT_FALSE(results[0].at("job").at("cancelled").as_bool()) << label;
      EXPECT_EQ(server.stats_snapshot().timeouts, 0u) << label;
    }
  }
}

TEST(Server, DrainRefusesNewWorkFinishesInFlightAndReportsState) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  ASSERT_TRUE(server.handle_line(client, size_request("a", "c17")));
  EXPECT_FALSE(server.draining());
  server.begin_drain();
  EXPECT_TRUE(server.draining());
  // Post-drain requests are refused with the machine-readable shutdown
  // code; the in-flight job still runs to completion.
  ASSERT_TRUE(server.handle_line(client, size_request("late", "c17", R"(,"seed":9)")));
  server.drain();
  EXPECT_TRUE(server.idle());
  const auto errors = collector.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("id").as_string(), "late");
  EXPECT_EQ(errors[0].at("code").as_string(), "shutdown");
  const auto results = collector.of_type("result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("id").as_string(), "a");
  // The stats surface says so, for both pollers and --stats-dump readers.
  ASSERT_TRUE(server.handle_line(client, R"({"type":"stats","id":"s"})"));
  const auto stats = collector.of_type("stats");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].at("server").at("state").as_string(), "draining");
  EXPECT_NE(serve::format_stats_text(server.stats_snapshot())
                .find("state=draining"),
            std::string::npos);
}

TEST(Server, ErrorCodesIdentifyTheFailureClass) {
  HoldingCollector parked;
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  ASSERT_TRUE(server.handle_line(client, "this is not json"));
  ASSERT_TRUE(server.handle_line(client, R"({"type":"cancel","id":"ghost"})"));
  // Another client's job parks the only worker, so "dup" stays pending and
  // its id collision is deterministic, not a race against completion.
  const auto cp = server.add_client(parked.sink());
  ASSERT_TRUE(
      server.handle_line(cp, size_request("p", "c880", R"(,"progress":1)")));
  ASSERT_TRUE(parked.wait_for("progress", 1)) << "job never started";
  ASSERT_TRUE(server.handle_line(client, size_request("dup", "c432")));
  ASSERT_TRUE(server.handle_line(client, size_request("dup", "c17")));
  ASSERT_TRUE(server.handle_line(client, R"({"type":"cancel","id":"dup"})"));
  ASSERT_TRUE(server.handle_line(cp, R"({"type":"cancel","id":"p"})"));
  parked.release();
  server.drain();
  const auto errors = collector.of_type("error");
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0].at("code").as_string(), "parse");
  EXPECT_EQ(errors[1].at("code").as_string(), "not_found");
  EXPECT_EQ(errors[2].at("code").as_string(), "duplicate_id");
  EXPECT_EQ(errors[2].at("id").as_string(), "dup");
}

TEST(Server, StatsRequestReportsReconcilableCountersAndLatency) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  options.version = "test";
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  // Two identical jobs: one runs, its twin answers from the cache (as a
  // direct hit or an in-flight follower, depending on timing — either way
  // it counts as a cache-served completion).
  ASSERT_TRUE(server.handle_line(client, size_request("a", "c17")));
  ASSERT_TRUE(server.handle_line(client, size_request("b", "c17")));
  server.drain();
  ASSERT_TRUE(server.handle_line(client, R"({"type":"stats","id":"s1"})"));

  const auto stats = collector.of_type("stats");
  ASSERT_EQ(stats.size(), 1u);
  const Json& s = stats[0];
  EXPECT_EQ(s.at("id").as_string(), "s1");
  EXPECT_EQ(s.at("jobs").at("accepted").as_number(), 2.0);
  EXPECT_EQ(s.at("jobs").at("completed").as_number(), 2.0);
  EXPECT_EQ(s.at("jobs").at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(s.at("jobs").at("errors").as_number(), 0.0);
  EXPECT_EQ(s.at("jobs").at("queue_depth").as_number(), 0.0);
  EXPECT_EQ(s.at("clients").at("active").as_number(), 1.0);
  EXPECT_EQ(s.at("cache").at("entries").as_number(), 1.0);
  EXPECT_GT(s.at("cache").at("bytes").as_number(), 0.0);
  EXPECT_EQ(s.at("cache").at("mode").as_string(), "memory");
  // Both jobs finished, so both latencies are in the ring.
  EXPECT_EQ(s.at("latency").at("count").as_number(), 2.0);
  EXPECT_GE(s.at("latency").at("p99_ms").as_number(),
            s.at("latency").at("p50_ms").as_number());
  EXPECT_GT(s.at("latency").at("p99_ms").as_number(), 0.0);
}

/// Value of one series in a registry snapshot; NaN when absent. `labels`
/// must match the sample's full (sorted) label set.
double registry_value(const obs::Registry& registry, const std::string& name,
                      const obs::Labels& labels = {}) {
  for (const auto& family : registry.snapshot()) {
    if (family.name != name) continue;
    for (const auto& sample : family.samples) {
      if (sample.labels == labels) return sample.value;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

TEST(Server, StatsCarryServerIdentityAndDeriveFromTheRegistry) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  options.version = "test 1.2.3";
  serve::Server server(options);
  const obs::Registry& registry = server.registry();
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  ASSERT_TRUE(server.handle_line(client, size_request("a", "c17")));
  ASSERT_TRUE(server.handle_line(client, size_request("b", "c17")));
  ASSERT_TRUE(server.handle_line(client, "{not json"));  // one parse error
  server.drain();
  ASSERT_TRUE(server.handle_line(client, R"({"type":"stats","id":"s"})"));

  const auto stats = collector.of_type("stats");
  ASSERT_EQ(stats.size(), 1u);
  const Json& s = stats[0];
  // The v2-additive server block: identity plus clocks.
  EXPECT_EQ(s.at("server").at("version").as_string(), "test 1.2.3");
  EXPECT_GT(s.at("server").at("start_time_unix_s").as_number(), 0.0);
  EXPECT_GE(s.at("server").at("uptime_s").as_number(), 0.0);

  // The jsonl counters and the metrics registry are one source of truth:
  // every number in the stats response is a registry read.
  EXPECT_EQ(registry_value(registry, "lrsizer_serve_accepted_total"),
            s.at("jobs").at("accepted").as_number());
  EXPECT_EQ(registry_value(registry, "lrsizer_serve_responses_total",
                           {{"type", "result"}}),
            s.at("jobs").at("completed").as_number());
  EXPECT_EQ(registry_value(registry, "lrsizer_serve_cache_hits_total"),
            s.at("jobs").at("cache_hits").as_number());
  EXPECT_EQ(registry_value(registry, "lrsizer_serve_responses_total",
                           {{"type", "error"}}),
            s.at("jobs").at("errors").as_number());
  EXPECT_EQ(registry_value(registry, "lrsizer_serve_responses_total",
                           {{"type", "cancelled"}}),
            s.at("jobs").at("cancelled").as_number());
  EXPECT_EQ(registry_value(registry, "lrsizer_cache_entries"),
            s.at("cache").at("entries").as_number());
  EXPECT_EQ(registry_value(registry, "lrsizer_build_info",
                           {{"version", "test 1.2.3"}}),
            1.0);
  EXPECT_EQ(registry_value(registry, "lrsizer_serve_accepted_total"), 2.0);
  EXPECT_EQ(registry_value(registry, "lrsizer_serve_responses_total",
                           {{"type", "error"}}),
            1.0);
}

TEST(Server, TraceOptInAttachesATraceToColdResultsOnly) {
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  {
    serve::Server server(options);
    const auto client = server.add_client(collector.sink());
    // Two identical traced jobs: the first runs cold and carries a trace,
    // the twin answers from the cache (stored report — no trace), and an
    // untraced request never grows one.
    ASSERT_TRUE(
        server.handle_line(client, size_request("a", "c17", R"(,"trace":true)")));
    ASSERT_TRUE(
        server.handle_line(client, size_request("b", "c17", R"(,"trace":true)")));
    ASSERT_TRUE(
        server.handle_line(client, size_request("c", "c17", R"(,"seed":9)")));
    server.drain();
  }
  const auto results = collector.of_type("result");
  ASSERT_EQ(results.size(), 3u);
  Json by_id[3];
  for (const Json& r : results) by_id[r.at("id").as_string()[0] - 'a'] = r;

  ASSERT_FALSE(by_id[0].at("cache_hit").as_bool());
  const Json* trace = by_id[0].find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->at("schema").as_string(), "lrsizer-trace-v1");
  const auto& events = trace->at("traceEvents").as_array();
  EXPECT_FALSE(events.empty());
  std::size_t stage_spans = 0, iteration_spans = 0;
  for (const Json& event : events) {
    const std::string& name = event.at("name").as_string();
    if (name == "size" || name == "elaborate") ++stage_spans;
    if (name == "ogws_iteration") ++iteration_spans;
  }
  EXPECT_EQ(stage_spans, 2u);
  EXPECT_GT(iteration_spans, 0u);

  EXPECT_TRUE(by_id[1].at("cache_hit").as_bool());
  EXPECT_EQ(by_id[1].find("trace"), nullptr);
  EXPECT_FALSE(by_id[2].at("cache_hit").as_bool());
  EXPECT_EQ(by_id[2].find("trace"), nullptr);
  // Tracing never perturbs the answer: traced and cached results agree byte
  // for byte on the job payload.
  EXPECT_EQ(by_id[0].at("job").dump(), by_id[1].at("job").dump());
}

// ---- multi-client server ----------------------------------------------------

TEST(Server, ClientsHaveIndependentIdNamespaces) {
  serve::ServerOptions options;
  options.jobs = 2;
  HoldingCollector parked1, parked2;
  Collector a, b;
  serve::Server server(options);
  const auto ca = server.add_client(a.sink());
  const auto cb = server.add_client(b.sink());
  EXPECT_EQ(server.active_clients(), 2u);
  server.hello(ca);
  server.hello(cb);
  // The same id on two clients is not a duplicate: both jobs run and each
  // client receives exactly its own responses.
  ASSERT_TRUE(server.handle_line(ca, size_request("x", "c17")));
  ASSERT_TRUE(server.handle_line(cb, size_request("x", "c17")));
  server.drain();
  EXPECT_EQ(a.of_type("hello").size(), 1u);
  EXPECT_EQ(a.of_type("result").size(), 1u);
  EXPECT_EQ(b.of_type("result").size(), 1u);
  EXPECT_TRUE(a.of_type("error").empty());
  EXPECT_TRUE(b.of_type("error").empty());
  // Same-client reuse of an id while active is still rejected. Two other
  // clients' jobs (distinct circuits, so neither dedupes onto the other)
  // park both workers, so the first "y" stays pending.
  const auto cp1 = server.add_client(parked1.sink());
  const auto cp2 = server.add_client(parked2.sink());
  ASSERT_TRUE(
      server.handle_line(cp1, size_request("p", "c880", R"(,"progress":1)")));
  ASSERT_TRUE(
      server.handle_line(cp2, size_request("p", "c499", R"(,"progress":1)")));
  ASSERT_TRUE(parked1.wait_for("progress", 1)) << "job never started";
  ASSERT_TRUE(parked2.wait_for("progress", 1)) << "job never started";
  ASSERT_TRUE(server.handle_line(ca, size_request("y", "c432")));
  ASSERT_TRUE(server.handle_line(ca, size_request("y", "c17")));
  ASSERT_TRUE(a.wait_for("error", 1));
  ASSERT_TRUE(server.handle_line(ca, R"({"type":"cancel","id":"y"})"));
  parked1.release();
  parked2.release();
  server.drain();
  server.remove_client(ca);
  server.remove_client(cb);
  server.remove_client(cp1);
  server.remove_client(cp2);
  EXPECT_EQ(server.active_clients(), 0u);
}

TEST(Server, CancelIsScopedToTheRequestingClient) {
  serve::ServerOptions options;
  options.jobs = 1;
  HoldingCollector a;
  Collector b;
  serve::Server server(options);
  const auto ca = server.add_client(a.sink());
  const auto cb = server.add_client(b.sink());
  // A's job parks mid-OGWS until both cancels below have been handled.
  ASSERT_TRUE(
      server.handle_line(ca, size_request("x", "c432", R"(,"progress":1)")));
  ASSERT_TRUE(a.wait_for("progress", 1)) << "job never started";
  // B cancelling "x" must not reach A's job: B just gets an error.
  ASSERT_TRUE(server.handle_line(cb, R"({"type":"cancel","id":"x"})"));
  ASSERT_TRUE(b.wait_for("error", 1));
  EXPECT_TRUE(a.of_type("cancelled").empty());
  // A cancelling its own job works as before.
  ASSERT_TRUE(server.handle_line(ca, R"({"type":"cancel","id":"x"})"));
  a.release();
  server.drain();
  EXPECT_EQ(a.of_type("cancelled").size(), 1u);
  EXPECT_TRUE(b.of_type("cancelled").empty());
}

TEST(Server, RemoveClientCancelsItsJobsAndDropsItsResponses) {
  serve::ServerOptions options;
  options.jobs = 1;
  HoldingCollector parked;
  Collector a;
  serve::Server server(options);
  const auto cp = server.add_client(parked.sink());
  const auto ca = server.add_client(a.sink());
  // Another client's job parks the only worker, so A's job is still pending
  // when A goes away. (A's own job cannot be the parked one: remove_client
  // takes A's mutex, which a parked emit to A would hold.)
  ASSERT_TRUE(
      server.handle_line(cp, size_request("p", "c880", R"(,"progress":1)")));
  ASSERT_TRUE(parked.wait_for("progress", 1)) << "job never started";
  ASSERT_TRUE(
      server.handle_line(ca, size_request("x", "c432", R"(,"progress":1)")));
  server.remove_client(ca);
  parked.release();
  // The orphaned job was cancelled before it ran, so drain() waits only for
  // the parked client's job, which completes.
  server.drain();
  server.remove_client(cp);
  EXPECT_EQ(server.active_clients(), 0u);
  EXPECT_EQ(server.stats_snapshot().cancelled, 1u);
  // No response of any kind reached the removed client's sink.
  EXPECT_TRUE(a.of_type("cancelled").empty());
  EXPECT_TRUE(a.of_type("result").empty());
}

// ---- TCP event loop ---------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

/// A listening server on an ephemeral port, its event loop on its own
/// thread; the destructor requests stop and joins.
struct TcpServer {
  serve::ServerOptions options;
  std::stop_source stop;
  std::unique_ptr<serve::Server> server;
  std::atomic<std::uint16_t> port{0};
  std::atomic<std::uint16_t> metrics_port{0};
  std::atomic<bool> done{false};
  std::thread thread;

  explicit TcpServer(serve::ServerOptions opts, bool with_metrics = false)
      : options(std::move(opts)) {
    options.stop = stop.get_token();
    server = std::make_unique<serve::Server>(options);
    thread = std::thread([this, with_metrics] {
      serve::ListenOptions listen;
      listen.port = 0;
      listen.metrics_port = with_metrics ? 0 : -1;
      listen.bound_port = &port;
      listen.metrics_bound_port = &metrics_port;
      serve::listen_and_serve(listen, *server);
      done.store(true);
    });
    while ((port.load() == 0 ||
            (with_metrics && metrics_port.load() == 0)) &&
           !done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~TcpServer() {
    stop.request_stop();
    thread.join();
  }
};

/// Blocking line-oriented test client (60 s receive timeout so a stalled
/// server fails the test instead of hanging it).
struct TcpClient {
  int fd = -1;
  std::string buffer;

  explicit TcpClient(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    timeval timeout{60, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~TcpClient() {
    if (fd >= 0) ::close(fd);
  }
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  bool ok() const { return fd >= 0; }

  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
#if defined(MSG_NOSIGNAL)
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
#else
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
#endif
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }
  void send_line(const std::string& line) { send_raw(line + "\n"); }

  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t newline = buffer.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Read responses until one of `type` arrives; nullopt on EOF/timeout.
  std::optional<Json> read_until(const std::string& type) {
    for (;;) {
      const auto line = read_line();
      if (!line) return std::nullopt;
      Json j = Json::parse(*line);
      if (j.at("type").as_string() == type) return j;
    }
  }
};

/// Everything nondeterministic (wall clock) or request-specific (name,
/// cache routing) nulled out: what must be byte-identical between a served
/// result and a direct serial run of the same job.
std::string normalized_job(Json job) {
  job.set("name", "x");
  job.set("cache_hit", false);
  job.set("seconds", 0);
  job.set("stage1_seconds", 0);
  job.set("stage2_seconds", 0);
  return job.dump();
}

/// Direct serial run of the c17 job the TCP tests request (vectors 8,
/// elaboration seed `seed`), normalized.
std::string serial_baseline(std::uint64_t seed) {
  runtime::BatchJob job;
  job.name = "x";
  job.seed = seed;
  job.netlist = netlist::parse_bench_string(netlist::kIscas85C17);
  job.options = fast_options();
  job.options.elab.seed = seed;
  const auto outcome = runtime::run_job(std::move(job));
  EXPECT_TRUE(outcome.ok);
  return normalized_job(runtime::job_json(outcome));
}

TEST(ServeTcp, MultiClientStressMatchesSerialRunsAndStatsReconcile) {
  // Serial ground truth, one run per seed, before the server exists.
  std::map<std::uint64_t, std::string> baseline;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    baseline[seed] = serial_baseline(seed);
  }

  serve::ServerOptions options;
  options.jobs = 2;
  options.version = "test";
  // A deliberately tight cache: eviction churns underneath the concurrent
  // clients, and results must still be byte-identical to serial runs.
  runtime::CacheLimits limits;
  limits.max_entries = 2;
  runtime::ResultCache cache("", limits);
  options.cache = &cache;
  TcpServer ts(options);
  ASSERT_NE(ts.port.load(), 0);

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      TcpClient client(ts.port.load());
      if (!client.ok()) {
        ++failures;
        return;
      }
      const auto hello = client.read_until("hello");
      if (!hello || hello->at("schema").as_string() != "lrsizer-serve-v3") {
        ++failures;
        return;
      }
      // Ids deliberately collide across clients ("j0".."j5" everywhere):
      // per-client namespaces must keep them apart. Interleave a bogus
      // cancel and a stats poll between the size requests.
      for (int k = 0; k < kJobsPerClient; ++k) {
        const std::uint64_t seed = static_cast<std::uint64_t>(k % 3) + 1;
        client.send_line(size_request("j" + std::to_string(k), "c17",
                                      ",\"seed\":" + std::to_string(seed)));
        if (k == 2) client.send_line(R"({"type":"cancel","id":"ghost"})");
        if (k == 4) client.send_line(R"({"type":"stats"})");
      }
      int results = 0, errors = 0, stats = 0;
      while (results < kJobsPerClient || errors < 1 || stats < 1) {
        const auto line = client.read_line();
        if (!line) {
          ++failures;  // EOF/timeout before all responses arrived
          return;
        }
        const Json j = Json::parse(*line);
        const std::string& type = j.at("type").as_string();
        if (type == "result") {
          ++results;
          const std::string id = j.at("id").as_string();
          const std::uint64_t seed =
              static_cast<std::uint64_t>((id[1] - '0') % 3) + 1;
          if (normalized_job(j.at("job")) != baseline[seed]) ++failures;
        } else if (type == "error") {
          ++errors;  // exactly the ghost cancel
          if (j.at("id").as_string() != "ghost") ++failures;
        } else if (type == "stats") {
          ++stats;
        } else if (type != "accepted" && type != "hello") {
          ++failures;  // no cancelled/progress was requested
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  // Fleet-level reconciliation from a fresh client: every counter adds up
  // across all four clients, and the budget was never exceeded.
  TcpClient auditor(ts.port.load());
  ASSERT_TRUE(auditor.ok());
  ASSERT_TRUE(auditor.read_until("hello").has_value());
  auditor.send_line(R"({"type":"stats","id":"audit"})");
  const auto reply = auditor.read_until("stats");
  ASSERT_TRUE(reply.has_value());
  const Json& s = *reply;
  EXPECT_EQ(s.at("jobs").at("accepted").as_number(), 1.0 * kClients * kJobsPerClient);
  EXPECT_EQ(s.at("jobs").at("completed").as_number(), 1.0 * kClients * kJobsPerClient);
  EXPECT_EQ(s.at("jobs").at("errors").as_number(), 1.0 * kClients);
  EXPECT_EQ(s.at("jobs").at("cancelled").as_number(), 0.0);
  EXPECT_EQ(s.at("jobs").at("queue_depth").as_number(), 0.0);
  EXPECT_EQ(s.at("clients").at("active").as_number(), 1.0);
  EXPECT_LE(s.at("cache").at("entries").as_number(), 2.0);
  EXPECT_GT(s.at("cache").at("evictions").as_number(), 0.0);
  EXPECT_EQ(s.at("latency").at("count").as_number(), 1.0 * kClients * kJobsPerClient);
  EXPECT_GT(s.at("latency").at("p99_ms").as_number(), 0.0);
}

TEST(ServeTcp, PartialLinesFromASlowWriterAssembleIntoOneRequest) {
  serve::ServerOptions options;
  options.jobs = 1;
  TcpServer ts(options);
  TcpClient client(ts.port.load());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.read_until("hello").has_value());
  // Dribble one request across several writes with pauses: the per-client
  // buffer must assemble it, not treat each fragment as a line.
  const std::string request = size_request("slow", "c17");
  for (std::size_t off = 0; off < request.size(); off += 11) {
    client.send_raw(request.substr(off, 11));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  client.send_raw("\n");
  const auto result = client.read_until("result");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->at("id").as_string(), "slow");
}

TEST(ServeTcp, CacheHitsAnswerWithoutWaitingForADelayedAck) {
  // A cache hit is answered with two small writes, accepted then result.
  // With Nagle's algorithm on, the second waits for the client's delayed
  // ACK of the first (~40 ms on Linux); a hit itself takes about 1 ms.
  serve::ServerOptions options;
  options.jobs = 1;
  TcpServer ts(options);
  TcpClient client(ts.port.load());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.read_until("hello").has_value());
  client.send_line(size_request("cold", "c17"));
  ASSERT_TRUE(client.read_until("result").has_value());

  std::vector<double> hit_ms;
  for (int k = 0; k < 11; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    client.send_line(size_request("hit" + std::to_string(k), "c17"));
    const auto result = client.read_until("result");
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->at("cache_hit").as_bool());
    hit_ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  const auto median = hit_ms.begin() + static_cast<std::ptrdiff_t>(hit_ms.size() / 2);
  std::nth_element(hit_ms.begin(), median, hit_ms.end());
  EXPECT_LT(*median, 20.0);
}

TEST(ServeTcp, OversizedLineIsRejectedWithoutBufferingOrDisconnect) {
  serve::ServerOptions options;
  options.jobs = 1;
  options.max_line_bytes = 256;
  TcpServer ts(options);
  TcpClient client(ts.port.load());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.read_until("hello").has_value());
  // 8 KB with no newline: rejected once the buffer passes 256 bytes, the
  // rest discarded, the connection kept.
  client.send_raw(std::string(8192, 'x'));
  const auto error = client.read_until("error");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->at("message").as_string().find("exceeds"),
            std::string::npos);
  // Terminate the oversized line; the same connection then works normally.
  client.send_raw("\n");
  client.send_line(size_request("after", "c17"));
  const auto result = client.read_until("result");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->at("id").as_string(), "after");
  // A whole line just over the cap, newline included, is refused the same
  // way: answered `oversized`, never parsed.
  client.send_raw(std::string(300, 'y') + "\n");
  const auto whole = client.read_until("error");
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->at("code").as_string(), "oversized");
}

TEST(ServeTcp, MidJobDisconnectCancelsTheJobAndServesOtherClients) {
  serve::ServerOptions options;
  options.jobs = 1;
  TcpServer ts(options);
  {
    TcpClient doomed(ts.port.load());
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(doomed.read_until("hello").has_value());
    // The deep circuit runs for seconds: the abrupt close below reliably
    // lands mid-job (a c17-sized job would finish before the server could
    // even notice the EOF).
    doomed.send_line(long_deep_request("x", R"(,"progress":1)"));
    // The job is mid-OGWS (progress is flowing) when the client vanishes:
    // pending responses hit a closed socket — the server must survive (no
    // SIGPIPE) and cancel the orphaned job.
    ASSERT_TRUE(doomed.read_until("progress").has_value());
  }
  TcpClient survivor(ts.port.load());
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(survivor.read_until("hello").has_value());
  survivor.send_line(size_request("y", "c17"));
  const auto result = survivor.read_until("result");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->at("id").as_string(), "y");
  // The orphan was reaped: poll stats until the cancel lands (the reap is
  // asynchronous with the survivor's connect).
  bool cancelled = false;
  for (int i = 0; i < 600 && !cancelled; ++i) {
    survivor.send_line(R"({"type":"stats"})");
    const auto stats = survivor.read_until("stats");
    ASSERT_TRUE(stats.has_value());
    cancelled = stats->at("jobs").at("cancelled").as_number() >= 1.0;
    if (!cancelled) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(cancelled);
}

TEST(ServeTcp, ShutdownFromOneClientStopsTheWholeService) {
  serve::ServerOptions options;
  options.jobs = 1;
  TcpServer ts(options);
  TcpClient client(ts.port.load());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.read_until("hello").has_value());
  client.send_line(R"({"type":"shutdown"})");
  // The event loop exits on its own — no stop token involved.
  for (int i = 0; i < 600 && !ts.done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(ts.done.load());
}

// ---- metrics endpoint -------------------------------------------------------

/// One HTTP exchange against the metrics port: send `request` raw, read to
/// EOF (the endpoint is Connection: close), return the whole response.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  TcpClient client(port);
  if (!client.ok()) return "";
  client.send_raw(request);
  std::string response = client.buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(client.fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

/// Parse a Prometheus text body into {"name{labels}" or "name"} -> value.
std::map<std::string, double> parse_exposition(const std::string& body) {
  std::map<std::string, double> samples;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t eol = body.find('\n', pos);
    const std::string line = body.substr(pos, eol - pos);
    pos = (eol == std::string::npos) ? body.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return samples;
}

TEST(ServeTcp, MetricsEndpointMatchesJsonlStatsAndServesHealthz) {
  serve::ServerOptions options;
  options.jobs = 1;
  options.version = "tcp-test";
  TcpServer ts(options, /*with_metrics=*/true);
  ASSERT_NE(ts.port.load(), 0);
  ASSERT_NE(ts.metrics_port.load(), 0);

  TcpClient client(ts.port.load());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.read_until("hello").has_value());
  client.send_line(size_request("a", "c17"));
  ASSERT_TRUE(client.read_until("result").has_value());
  client.send_line(size_request("b", "c17"));
  ASSERT_TRUE(client.read_until("result").has_value());

  // Quiescent instant (no jobs in flight): the jsonl stats response and a
  // /metrics scrape read the same registry and must agree exactly.
  client.send_line(R"({"type":"stats","id":"s"})");
  const auto stats = client.read_until("stats");
  ASSERT_TRUE(stats.has_value());
  const std::string response = http_exchange(
      ts.metrics_port.load(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(
      response.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const auto samples = parse_exposition(response.substr(body_at + 4));

  ASSERT_TRUE(samples.count("lrsizer_serve_accepted_total"));
  EXPECT_EQ(samples.at("lrsizer_serve_accepted_total"),
            stats->at("jobs").at("accepted").as_number());
  EXPECT_EQ(samples.at("lrsizer_serve_responses_total{type=\"result\"}"),
            stats->at("jobs").at("completed").as_number());
  EXPECT_EQ(samples.at("lrsizer_serve_cache_hits_total"),
            stats->at("jobs").at("cache_hits").as_number());
  EXPECT_EQ(samples.at("lrsizer_cache_entries"),
            stats->at("cache").at("entries").as_number());
  EXPECT_EQ(samples.at("lrsizer_build_info{version=\"tcp-test\"}"), 1.0);
  EXPECT_EQ(samples.at("lrsizer_serve_clients"), 1.0);
  // Histogram invariants on the wire: +Inf bucket == count == completions.
  EXPECT_EQ(
      samples.at("lrsizer_serve_job_latency_seconds_bucket{le=\"+Inf\"}"),
      samples.at("lrsizer_serve_job_latency_seconds_count"));
  EXPECT_EQ(samples.at("lrsizer_serve_job_latency_seconds_count"), 2.0);

  // Routing: health probe, unknown path, non-GET method.
  const std::string health = http_exchange(
      ts.metrics_port.load(), "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(health.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_EQ(health.substr(health.find("\r\n\r\n") + 4), "ok\n");
  EXPECT_EQ(http_exchange(ts.metrics_port.load(),
                          "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
                .rfind("HTTP/1.1 404 Not Found\r\n", 0),
            0u);
  EXPECT_EQ(http_exchange(ts.metrics_port.load(),
                          "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                .rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0),
            0u);

  // The jsonl side is untouched by the scrapes: a job still round-trips.
  client.send_line(size_request("c", "c17", R"(,"seed":5)"));
  const auto after = client.read_until("result");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->at("id").as_string(), "c");
}

TEST(ServeTcp, DrainTurnsHealthz503RefusesNewClientsAndExitsCleanly) {
  serve::ServerOptions options;
  options.jobs = 1;
  TcpServer ts(options, /*with_metrics=*/true);
  ASSERT_NE(ts.port.load(), 0);
  TcpClient client(ts.port.load());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.read_until("hello").has_value());
  // The deep circuit runs for seconds — a wide-open drain window (a small
  // job would finish before the probes below get a look).
  client.send_line(long_deep_request("x", R"(,"progress":1)"));
  ASSERT_TRUE(client.read_until("progress").has_value());

  // Drain mid-job: the SIGTERM path minus the signal.
  ts.server->begin_drain();

  // /healthz flips to 503 at once so load balancers route away, while
  // /metrics keeps answering (lrsizer_serve_draining = 1) for the ops side.
  const std::string health = http_exchange(
      ts.metrics_port.load(), "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(health.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u);
  EXPECT_EQ(health.substr(health.find("\r\n\r\n") + 4), "draining\n");
  const std::string scrape = http_exchange(
      ts.metrics_port.load(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_EQ(scrape.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  const auto samples =
      parse_exposition(scrape.substr(scrape.find("\r\n\r\n") + 4));
  EXPECT_EQ(samples.at("lrsizer_serve_draining"), 1.0);

  // New jsonl connections are turned away without a greeting.
  TcpClient late(ts.port.load());
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(late.read_line().has_value());

  // The in-flight job still reaches its terminal response; once the last
  // job is done the event loop exits on its own — no stop token involved —
  // which is what lets the CLI exit 0 after a SIGTERM drain.
  client.send_line(R"({"type":"cancel","id":"x"})");
  ASSERT_TRUE(client.read_until("cancelled").has_value());
  for (int i = 0; i < 600 && !ts.done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(ts.done.load());
}

#endif  // sockets

// ---- merge ------------------------------------------------------------------

/// Null out every wall-clock-derived field so reports from different runs
/// compare byte-for-byte on everything deterministic.
Json normalize_walltimes(Json report) {
  report.set("wall_seconds", nullptr);
  report.set("total_job_seconds", nullptr);
  report.set("speedup", nullptr);
  Json jobs = Json::array();
  for (Json job : report.at("jobs").as_array()) {
    job.set("seconds", nullptr);
    if (job.find("stage1_seconds")) {
      job.set("stage1_seconds", nullptr);
      job.set("stage2_seconds", nullptr);
    }
    jobs.push_back(job);
  }
  report.set("jobs", jobs);
  return report;
}

std::vector<runtime::BatchJob> sweep_jobs(int count) {
  std::vector<runtime::BatchJob> jobs;
  for (int i = 0; i < count; ++i) {
    runtime::BatchJob job;
    job.name = "point" + std::to_string(i);
    job.netlist = netlist::generate_circuit(tiny_spec(1));
    job.options = fast_options();
    job.options.bound_factors.noise = 0.10 + 0.02 * i;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(Merge, TwoDisjointShardsEqualTheUnshardedReport) {
  runtime::BatchOptions options;
  options.jobs = 1;
  auto unsharded = runtime::run_batch(sweep_jobs(5), options);
  const Json full = runtime::batch_json(unsharded);

  // Shard k runs global indices ≡ k (mod 2), exactly like `--shard k/2`.
  std::vector<Json> shard_reports;
  for (int k = 0; k < 2; ++k) {
    auto all = sweep_jobs(5);
    std::vector<runtime::BatchJob> part;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i % 2 == static_cast<std::size_t>(k)) part.push_back(std::move(all[i]));
    }
    auto shard = runtime::run_batch(std::move(part), options);
    shard.shard_index = k;
    shard.shard_count = 2;
    shard_reports.push_back(runtime::batch_json(shard));
  }

  const Json merged = runtime::merge_batch_reports(shard_reports);
  EXPECT_EQ(merged.find("shard"), nullptr) << "merged reports are unsharded";
  EXPECT_EQ(normalize_walltimes(merged).dump(),
            normalize_walltimes(full).dump());
}

TEST(Merge, RejectsOutOfRangeShardFields) {
  // Hand-edited/corrupt shard fields must reject readably, not cast
  // undefined doubles to size_t.
  Json bad = Json::parse(
      R"({"schema":"lrsizer-batch-v2","shard":{"index":-1,"count":2},"jobs":[]})");
  EXPECT_THROW(runtime::merge_batch_reports({bad, bad}), std::invalid_argument);
  Json huge = Json::parse(
      R"({"schema":"lrsizer-batch-v2","shard":{"index":0,"count":1e18},"jobs":[]})");
  EXPECT_THROW(runtime::merge_batch_reports({huge}), std::invalid_argument);
}

TEST(Merge, RejectsInconsistentShardFamilies) {
  runtime::BatchOptions options;
  options.jobs = 1;
  auto batch = runtime::run_batch(sweep_jobs(2), options);
  const Json unsharded = runtime::batch_json(batch);
  batch.shard_index = 0;
  batch.shard_count = 2;
  const Json shard0 = runtime::batch_json(batch);
  batch.shard_index = 1;
  const Json shard1 = runtime::batch_json(batch);

  EXPECT_THROW(runtime::merge_batch_reports({}), std::invalid_argument);
  // Unannotated report.
  EXPECT_THROW(runtime::merge_batch_reports({unsharded, shard1}),
               std::invalid_argument);
  // Duplicate index.
  EXPECT_THROW(runtime::merge_batch_reports({shard0, shard0}),
               std::invalid_argument);
  // Wrong family size (count says 2, one given).
  EXPECT_THROW(runtime::merge_batch_reports({shard0}), std::invalid_argument);
  // Not a batch report at all.
  Json bogus = Json::object();
  bogus.set("schema", "something-else");
  EXPECT_THROW(runtime::merge_batch_reports({bogus, shard1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lrsizer
