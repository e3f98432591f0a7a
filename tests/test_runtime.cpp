// Tests for the parallel batch-flow runtime: thread-pool scheduling,
// batch determinism across worker counts, run_job's deadline checks, and
// JSON schema round-trips.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "netlist/generator.hpp"
#include "obs/trace.hpp"
#include "runtime/batch.hpp"
#include "runtime/json.hpp"
#include "runtime/pool.hpp"
#include "test_helpers.hpp"

namespace lrsizer {
namespace {

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, ReturnsResultsThroughFutures) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expected = 0;
  for (int i = 0; i < 64; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  runtime::ThreadPool pool(0);
  EXPECT_GE(pool.num_workers(), 1);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  runtime::ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, WaitIdleDrainsAllSubmittedWork) {
  // A caller that keeps the pool waits for a batch by waiting on its futures;
  // every submitted task has run once the last one is ready.
  runtime::ThreadPool pool(3);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(
        pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, SubmitFromInsideATaskCompletes) {
  std::atomic<int> done{0};
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&pool, &done] {
        pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, UnevenTasksAllComplete) {
  // A few slow tasks next to many fast ones: everything must still complete.
  std::atomic<int> done{0};
  {
    runtime::ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&done, i] {
        if (i % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, QueuedTasksStartInSubmitOrder) {
  // Both workers are held on a blocking task while four more tasks queue up.
  // Releasing one worker must start the queued tasks oldest first, so the
  // oldest admitted serve request is always the next to run.
  runtime::ThreadPool pool(2);
  std::latch running(2);
  std::promise<void> release_first;
  std::promise<void> release_second;
  auto held = [&running](std::shared_future<void> release) {
    return [&running, release] {
      running.count_down();
      release.wait();
    };
  };
  auto first = pool.submit(held(release_first.get_future().share()));
  auto second = pool.submit(held(release_second.get_future().share()));
  running.wait();

  std::mutex mutex;
  std::vector<int> started;
  std::vector<std::future<void>> queued;
  for (int i = 1; i <= 4; ++i) {
    queued.push_back(pool.submit([&mutex, &started, i] {
      const std::lock_guard<std::mutex> lock(mutex);
      started.push_back(i);
    }));
  }
  release_second.set_value();
  for (auto& f : queued) f.get();  // one free worker runs them all
  release_first.set_value();
  first.get();
  second.get();
  EXPECT_EQ(started, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ThreadPool, DestructorWaitsForQueuedTasks) {
  // The destructor runs every submitted task before joining: letting the
  // pool go out of scope is how a caller waits for fire-and-forget work.
  std::atomic<int> done{0};
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(done.load(), 50);
}

// ---- batch flow -------------------------------------------------------------

netlist::GeneratorSpec small_spec(std::uint64_t seed) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 40;
  spec.num_wires = 80;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  spec.depth = 6;
  spec.seed = seed;
  return spec;
}

runtime::BatchOptions batch_options(int jobs) {
  runtime::BatchOptions options;
  options.jobs = jobs;
  return options;
}

std::vector<runtime::BatchJob> small_jobs(int count) {
  std::vector<runtime::BatchJob> jobs;
  for (int i = 0; i < count; ++i) {
    runtime::BatchJob job;
    job.name = "job" + std::to_string(i);
    job.seed = static_cast<std::uint64_t>(i + 1);
    job.netlist = netlist::generate_circuit(small_spec(job.seed));
    job.options.num_vectors = 8;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(Batch, ResultsStayInSubmitOrder) {
  auto batch = runtime::run_batch(small_jobs(4), batch_options(2));
  ASSERT_EQ(batch.jobs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.jobs[static_cast<std::size_t>(i)].name,
              "job" + std::to_string(i));
    EXPECT_TRUE(batch.jobs[static_cast<std::size_t>(i)].ok);
  }
  EXPECT_EQ(batch.num_failed(), 0u);
  EXPECT_EQ(batch.num_workers, 2);
}

TEST(Batch, DeterministicAcrossWorkerCounts) {
  // The headline contract: per-job results are bit-identical whether the
  // batch runs sequentially or on 8 oversubscribed workers, and so is the
  // whole report once its wall-clock fields and worker count are nulled.
  auto sequential = runtime::run_batch(small_jobs(6), batch_options(1));
  auto parallel = runtime::run_batch(small_jobs(6), batch_options(8));
  ASSERT_EQ(sequential.jobs.size(), parallel.jobs.size());
  for (std::size_t i = 0; i < sequential.jobs.size(); ++i) {
    const auto& a = sequential.jobs[i];
    const auto& b = parallel.jobs[i];
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_TRUE(a.flow.has_value());
    ASSERT_TRUE(b.flow.has_value());
    // Bit-exact size vectors (no tolerance).
    EXPECT_EQ(a.flow->circuit.sizes(), b.flow->circuit.sizes());
    EXPECT_EQ(a.summary.iterations, b.summary.iterations);
    EXPECT_EQ(a.summary.final_metrics.delay_s, b.summary.final_metrics.delay_s);
    EXPECT_EQ(a.summary.final_metrics.noise_f, b.summary.final_metrics.noise_f);
    EXPECT_EQ(a.summary.final_metrics.area_um2, b.summary.final_metrics.area_um2);
  }
  auto without_clocks = [](const runtime::BatchResult& batch) {
    runtime::Json report = runtime::batch_json(batch);
    for (const char* key : {"workers", "wall_seconds", "total_job_seconds", "speedup"}) {
      report.set(key, nullptr);
    }
    runtime::Json jobs = runtime::Json::array();
    for (runtime::Json job : report.at("jobs").as_array()) {
      for (const char* key : {"seconds", "stage1_seconds", "stage2_seconds"}) {
        job.set(key, nullptr);
      }
      jobs.push_back(job);
    }
    report.set("jobs", jobs);
    return report.dump();
  };
  EXPECT_EQ(without_clocks(sequential), without_clocks(parallel));
}

TEST(Batch, RollupsAggregatePerJobNumbers) {
  auto batch = runtime::run_batch(small_jobs(3), batch_options(2));
  EXPECT_GT(batch.wall_seconds, 0.0);
  EXPECT_GT(batch.total_job_seconds, 0.0);
  EXPECT_GT(batch.speedup(), 0.0);
  std::size_t total = 0;
  std::size_t peak = 0;
  for (const auto& job : batch.jobs) {
    total += job.summary.memory_bytes;
    peak = std::max(peak, job.summary.memory_bytes);
  }
  EXPECT_EQ(batch.total_memory_bytes, total);
  EXPECT_EQ(batch.peak_memory_bytes, peak);
}

TEST(Batch, FailedJobIsReportedNotFatal) {
  auto jobs = small_jobs(2);
  runtime::BatchJob bad;
  bad.name = "bad";
  // Netlist never finalized: the job must fail with an error message while
  // the rest of the batch completes.
  jobs.push_back(std::move(bad));
  auto batch = runtime::run_batch(std::move(jobs), batch_options(2));
  EXPECT_EQ(batch.num_failed(), 1u);
  EXPECT_TRUE(batch.jobs[0].ok);
  EXPECT_TRUE(batch.jobs[1].ok);
  EXPECT_FALSE(batch.jobs[2].ok);
  EXPECT_NE(batch.jobs[2].error.find("not finalized"), std::string::npos);
  const runtime::Json report = runtime::batch_json(batch);
  EXPECT_EQ(report.at("failed").as_number(), 1.0);
}

TEST(Batch, ProfileJobMatchesDirectFlowRun) {
  // make_profile_job + run_batch must reproduce a direct library call.
  core::FlowOptions options;
  options.num_vectors = 8;
  const auto logic =
      netlist::generate_circuit(netlist::spec_for_profile("c432", 1));
  const auto direct = test_support::run_flow(logic, options);

  std::vector<runtime::BatchJob> jobs;
  jobs.push_back(runtime::make_profile_job("c432", 1, options));
  auto batch = runtime::run_batch(std::move(jobs), batch_options(1));
  ASSERT_TRUE(batch.jobs[0].ok);
  EXPECT_EQ(batch.jobs[0].flow->circuit.sizes(), direct.circuit.sizes());
  EXPECT_EQ(batch.jobs[0].summary.iterations, direct.ogws.iterations);
}

// ---- JSON -------------------------------------------------------------------

TEST(Json, DumpAndParseRoundTrip) {
  runtime::Json doc = runtime::Json::object();
  doc.set("string", "hello \"world\"\n");
  doc.set("int", 42);
  doc.set("negative", -17.25);
  doc.set("tiny", 1.9835457330398077e-12);
  doc.set("bool", true);
  doc.set("null", nullptr);
  runtime::Json arr = runtime::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(runtime::Json::object());
  doc.set("arr", arr);

  for (int indent : {0, 2}) {
    const runtime::Json parsed = runtime::Json::parse(doc.dump(indent));
    EXPECT_EQ(parsed, doc) << "indent=" << indent;
  }
}

TEST(Json, NumbersRoundTripBitExact) {
  for (double value : {0.1, 1.0 / 3.0, 1.9835457330398077e-12, -6.02e23,
                       1747.003523931482, 0.0}) {
    const runtime::Json parsed = runtime::Json::parse(runtime::Json(value).dump());
    EXPECT_EQ(parsed.as_number(), value);
  }
}

TEST(Json, ObjectPreservesInsertionOrder) {
  runtime::Json doc = runtime::Json::object();
  doc.set("z", 1);
  doc.set("a", 2);
  doc.set("m", 3);
  EXPECT_EQ(doc.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  doc.set("a", 9);  // overwrite keeps the slot
  EXPECT_EQ(doc.dump(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(runtime::Json::parse("{"), runtime::JsonParseError);
  EXPECT_THROW(runtime::Json::parse("[1,]2"), runtime::JsonParseError);
  EXPECT_THROW(runtime::Json::parse("\"unterminated"), runtime::JsonParseError);
  EXPECT_THROW(runtime::Json::parse("{\"a\" 1}"), runtime::JsonParseError);
  EXPECT_THROW(runtime::Json::parse("tru"), runtime::JsonParseError);
  EXPECT_THROW(runtime::Json::parse("1 2"), runtime::JsonParseError);
  EXPECT_THROW(runtime::Json::parse(""), runtime::JsonParseError);
}

TEST(Json, ParseHandlesEscapesAndWhitespace) {
  const runtime::Json doc =
      runtime::Json::parse(" { \"a\\tb\" : [ true , null , \"\\u0041\" ] } ");
  const auto& arr = doc.at("a\tb").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].as_string(), "A");
}

TEST(Json, BatchReportSchemaRoundTrips) {
  auto batch = runtime::run_batch(small_jobs(2), batch_options(2));
  const runtime::Json report = runtime::batch_json(batch);
  EXPECT_EQ(report.at("schema").as_string(), "lrsizer-batch-v2");
  EXPECT_EQ(report.find("steals"), nullptr);  // removed in v2
  EXPECT_EQ(report.at("workers").as_number(), 2.0);
  EXPECT_EQ(report.at("jobs").size(), 2u);

  // Serialize -> parse -> re-serialize is a fixed point.
  const std::string text = report.dump(2);
  const runtime::Json parsed = runtime::Json::parse(text);
  EXPECT_EQ(parsed, report);
  EXPECT_EQ(parsed.dump(2), text);

  // And the per-job summary survives the round-trip field for field.
  const runtime::Json& job0 = parsed.at("jobs").as_array()[0];
  const core::FlowSummary restored = runtime::summary_from_json(job0);
  const core::FlowSummary& original = batch.jobs[0].summary;
  EXPECT_EQ(restored.num_gates, original.num_gates);
  EXPECT_EQ(restored.num_wires, original.num_wires);
  EXPECT_EQ(restored.iterations, original.iterations);
  EXPECT_EQ(restored.converged, original.converged);
  EXPECT_EQ(restored.final_metrics.delay_s, original.final_metrics.delay_s);
  EXPECT_EQ(restored.final_metrics.noise_f, original.final_metrics.noise_f);
  EXPECT_EQ(restored.final_metrics.area_um2, original.final_metrics.area_um2);
  EXPECT_EQ(restored.memory_bytes, original.memory_bytes);
  EXPECT_EQ(restored.cancelled, original.cancelled);
}

// ---- cancellation + progress ------------------------------------------------

TEST(Batch, PreCancelledTokenDrainsEveryJobAsCancelled) {
  std::stop_source source;
  source.request_stop();
  auto options = batch_options(2);
  options.stop = source.get_token();
  auto batch = runtime::run_batch(small_jobs(3), options);

  EXPECT_EQ(batch.num_cancelled(), 3u);
  EXPECT_EQ(batch.num_failed(), 0u);  // cancelled is not failed
  for (const auto& job : batch.jobs) {
    EXPECT_TRUE(job.cancelled);
    EXPECT_FALSE(job.ok);  // stopped before sizing produced anything
    EXPECT_NE(job.error.find("cancelled"), std::string::npos);
  }
  const runtime::Json report = runtime::batch_json(batch);
  EXPECT_EQ(report.at("cancelled").as_number(), 3.0);
  EXPECT_EQ(report.at("failed").as_number(), 0.0);
}

TEST(Batch, MidRunCancellationKeepsThePartialSummary) {
  // One worker so job0 is sizing while job1 queues; stop after a few OGWS
  // iterations. job0 must come back ok+cancelled with a usable partial
  // summary, job1 cancelled without one.
  std::stop_source source;
  std::atomic<int> iterations{0};
  auto options = batch_options(1);
  options.stop = source.get_token();
  options.observer = [&](const std::string&, const core::OgwsIterate&) {
    if (iterations.fetch_add(1, std::memory_order_relaxed) == 2) {
      source.request_stop();
    }
  };
  auto batch = runtime::run_batch(small_jobs(2), options);

  ASSERT_EQ(batch.jobs.size(), 2u);
  const auto& partial = batch.jobs[0];
  EXPECT_TRUE(partial.ok);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_TRUE(partial.summary.cancelled);
  EXPECT_FALSE(partial.summary.converged);
  EXPECT_GT(partial.summary.final_metrics.area_um2, 0.0);
  EXPECT_GT(partial.summary.memory_bytes, 0u);

  const auto& queued = batch.jobs[1];
  EXPECT_FALSE(queued.ok);
  EXPECT_TRUE(queued.cancelled);
  EXPECT_EQ(batch.num_failed(), 0u);

  // The JSON report carries the partial job with its cancelled marker.
  const runtime::Json report = runtime::batch_json(batch);
  const auto& jobs = report.at("jobs").as_array();
  EXPECT_TRUE(jobs[0].at("ok").as_bool());
  EXPECT_TRUE(jobs[0].at("cancelled").as_bool());
  EXPECT_FALSE(jobs[1].at("ok").as_bool());
}

TEST(Batch, ObserverReceivesProgressFromEveryJob) {
  std::mutex mutex;
  std::map<std::string, int> events;
  auto options = batch_options(2);
  options.observer = [&](const std::string& job, const core::OgwsIterate& it) {
    EXPECT_GE(it.k, 1);
    const std::lock_guard<std::mutex> lock(mutex);
    ++events[job];
  };
  auto batch = runtime::run_batch(small_jobs(3), options);

  ASSERT_EQ(events.size(), 3u);
  for (const auto& job : batch.jobs) {
    ASSERT_TRUE(job.ok);
    EXPECT_EQ(events.at(job.name), job.summary.iterations)
        << "observer events must match the reported iteration count";
  }
}

TEST(Batch, WarmSizesFeedTheSessionWarmStart) {
  // Size once cold, replay the final sizes as a sparse warm start: the
  // second batch must converge in fewer iterations. Loosen the bounds so
  // the cold run actually converges on this small generated circuit.
  auto loosen = [](std::vector<runtime::BatchJob> jobs) {
    for (auto& job : jobs) {
      job.options.bound_factors.delay = 1.2;
      job.options.bound_factors.noise = 0.2;
    }
    return jobs;
  };
  auto cold = runtime::run_batch(loosen(small_jobs(1)), batch_options(1));
  ASSERT_TRUE(cold.jobs[0].ok);
  ASSERT_TRUE(cold.jobs[0].flow.has_value());
  ASSERT_TRUE(cold.jobs[0].summary.converged);

  const netlist::Circuit& circuit = cold.jobs[0].flow->circuit;
  auto warm_jobs = loosen(small_jobs(1));
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    warm_jobs[0].warm.sizes.emplace_back(v, circuit.size(v));
  }
  auto warm = runtime::run_batch(std::move(warm_jobs), batch_options(1));
  ASSERT_TRUE(warm.jobs[0].ok);
  EXPECT_LT(warm.jobs[0].summary.iterations, cold.jobs[0].summary.iterations);
}

// ---- run_job deadlines -------------------------------------------------------

TEST(RunJob, DeadlineAlreadyPastAnswersBeforeElaborate) {
  obs::TraceSession trace;  // every stage records a span when it runs
  runtime::JobControls controls;
  controls.trace = &trace;
  controls.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const runtime::JobOutcome outcome = runtime::run_job(std::move(small_jobs(1)[0]), controls);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_TRUE(outcome.cancelled);
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.flow.has_value());
  EXPECT_NE(outcome.error.find("cancelled before elaborate"), std::string::npos)
      << outcome.error;
  EXPECT_EQ(trace.span_count(), 0u);
  EXPECT_GT(outcome.netlist.num_gates_logic(), 0);  // handed back all the same
}

TEST(RunJob, DeadlineLandingMidOgwsKeepsThePartialResult) {
  // The observer holds iteration 2 until the deadline has passed; the check
  // after it stops the run before iteration 3, as a timed-out partial. The
  // deadline leaves stage 1 of this 40-gate job ample time.
  runtime::JobControls controls;
  controls.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  int last_iteration = 0;
  controls.observer = [&](const std::string&, const core::OgwsIterate& it) {
    last_iteration = it.k;
    if (it.k == 2) std::this_thread::sleep_until(controls.deadline);
  };
  const runtime::JobOutcome outcome = runtime::run_job(std::move(small_jobs(1)[0]), controls);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.cancelled);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_TRUE(outcome.summary.cancelled);
  EXPECT_EQ(outcome.summary.iterations, 2);
  EXPECT_EQ(last_iteration, 2);
  ASSERT_TRUE(outcome.flow.has_value());
  EXPECT_GT(outcome.summary.final_metrics.area_um2, 0.0);
}

TEST(RunJob, NoDeadlineLeavesTheResultBitIdentical) {
  const runtime::JobOutcome plain = runtime::run_job(std::move(small_jobs(1)[0]));
  ASSERT_TRUE(plain.ok) << plain.error;
  std::stop_source never;
  runtime::JobControls controls;
  controls.stop = never.get_token();
  int iterations = 0;
  controls.observer = [&](const std::string&, const core::OgwsIterate&) { ++iterations; };
  for (const auto deadline : {std::chrono::steady_clock::time_point::max(),
                              std::chrono::steady_clock::now() + std::chrono::hours(1)}) {
    controls.deadline = deadline;
    iterations = 0;
    const runtime::JobOutcome controlled =
        runtime::run_job(std::move(small_jobs(1)[0]), controls);
    ASSERT_TRUE(controlled.ok) << controlled.error;
    EXPECT_FALSE(controlled.cancelled);
    EXPECT_FALSE(controlled.timed_out);
    EXPECT_EQ(iterations, controlled.summary.iterations);
    EXPECT_EQ(test_support::untimed_job_json(controlled).dump(),
              test_support::untimed_job_json(plain).dump());
    EXPECT_EQ(runtime::sparse_sizes(*controlled.flow), runtime::sparse_sizes(*plain.flow));
  }
}

TEST(Batch, CsvHasOneRowPerJobPlusHeader) {
  auto batch = runtime::run_batch(small_jobs(3), batch_options(1));
  const std::string csv = runtime::batch_csv(batch);
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4u);  // header + 3 jobs
  EXPECT_EQ(csv.find("name,seed,ok"), 0u);
  EXPECT_NE(csv.find("job0,1,1,"), std::string::npos);
}

}  // namespace
}  // namespace lrsizer
