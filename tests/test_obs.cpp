// Tests for the observability subsystem (src/obs/): registry data-model
// validation and idempotence, histogram invariants, Prometheus text
// exposition 0.0.4 (escaping, value formatting, cumulative buckets, a golden
// scrape of a hand-built registry), the HTTP/1.1 request parser's defensive
// posture, and trace-event JSON — including the contract that tracing never
// perturbs the flow (FlowResult bit-identical with tracing on vs off) and
// the step each OGWS iteration span reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "core/flow.hpp"
#include "netlist/generator.hpp"
#include "obs/http.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/json.hpp"

namespace {

using namespace lrsizer;
using obs::Registry;

// ---- data-model validation --------------------------------------------------

TEST(ObsRegistry, MetricNameValidation) {
  EXPECT_TRUE(Registry::valid_metric_name("lrsizer_serve_accepted_total"));
  EXPECT_TRUE(Registry::valid_metric_name("a"));
  EXPECT_TRUE(Registry::valid_metric_name("_leading_underscore"));
  EXPECT_TRUE(Registry::valid_metric_name("ns:subsystem:name"));
  EXPECT_TRUE(Registry::valid_metric_name(":colon_first"));
  EXPECT_FALSE(Registry::valid_metric_name(""));
  EXPECT_FALSE(Registry::valid_metric_name("0leading_digit"));
  EXPECT_FALSE(Registry::valid_metric_name("has-dash"));
  EXPECT_FALSE(Registry::valid_metric_name("has space"));
  EXPECT_FALSE(Registry::valid_metric_name("unicode_\xc3\xa9"));
}

TEST(ObsRegistry, LabelNameValidation) {
  EXPECT_TRUE(Registry::valid_label_name("outcome"));
  EXPECT_TRUE(Registry::valid_label_name("_private"));
  EXPECT_TRUE(Registry::valid_label_name("le"));  // valid name, just reserved
  EXPECT_FALSE(Registry::valid_label_name(""));
  EXPECT_FALSE(Registry::valid_label_name("9starts_with_digit"));
  EXPECT_FALSE(Registry::valid_label_name("with:colon"));  // labels: no colons
  EXPECT_FALSE(Registry::valid_label_name("with-dash"));
}

TEST(ObsRegistry, InvalidNamesThrowAtRegistration) {
  Registry reg;
  EXPECT_THROW((void)reg.counter("bad-name", "h"), std::invalid_argument);
  EXPECT_THROW((void)reg.gauge("1bad", "h"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("ok_total", "h", {{"bad-label", "v"}}),
               std::invalid_argument);
  // 'le' is reserved for the histogram renderer on every metric kind.
  EXPECT_THROW((void)reg.counter("ok_total", "h", {{"le", "v"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("h_seconds", "h", {1.0}, {{"le", "v"}}),
               std::invalid_argument);
}

TEST(ObsRegistry, HistogramBoundsMustBeAscendingAndFinite) {
  Registry reg;
  EXPECT_THROW((void)reg.histogram("h1", "h", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("h2", "h", {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)reg.histogram("h3", "h",
                          {1.0, std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
  EXPECT_NO_THROW((void)reg.histogram("h4", "h", {0.5, 1.0, 2.0}));
}

// ---- registration semantics -------------------------------------------------

TEST(ObsRegistry, RegistrationIsIdempotentPerNameAndLabels) {
  Registry reg;
  obs::Counter* a = reg.counter("jobs_total", "Jobs.", {{"outcome", "ok"}});
  obs::Counter* again = reg.counter("jobs_total", "Jobs.", {{"outcome", "ok"}});
  EXPECT_EQ(a, again);  // same series: same instrument, accumulates
  obs::Counter* other =
      reg.counter("jobs_total", "Jobs.", {{"outcome", "failed"}});
  EXPECT_NE(a, other);
  // Label order is not identity: {a,b} and {b,a} are one series.
  obs::Counter* ab =
      reg.counter("pair_total", "P.", {{"a", "1"}, {"b", "2"}});
  obs::Counter* ba =
      reg.counter("pair_total", "P.", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
}

TEST(ObsRegistry, TypeAndHelpCollisionsThrow) {
  Registry reg;
  (void)reg.counter("jobs_total", "Jobs.");
  EXPECT_THROW((void)reg.gauge("jobs_total", "Jobs."), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("jobs_total", "Jobs.", {1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.counter("jobs_total", "Different help."),
               std::invalid_argument);
  // Histogram bucket layout is per-family: a second series must match.
  (void)reg.histogram("lat_seconds", "L.", {0.1, 1.0}, {{"k", "a"}});
  EXPECT_THROW(
      (void)reg.histogram("lat_seconds", "L.", {0.5, 1.0}, {{"k", "b"}}),
      std::invalid_argument);
}

TEST(ObsRegistry, CallbackMetricsReplaceAndRemoveByOwner) {
  Registry reg;
  const int owner_a = 0, owner_b = 0;
  reg.gauge_fn("depth", "D.", {}, [] { return 1.0; }, &owner_a);
  reg.gauge_fn("depth", "D.", {}, [] { return 2.0; }, &owner_a);  // replaces
  reg.counter_fn("ticks_total", "T.", {}, [] { return 7.0; }, &owner_b);

  auto value_of = [&](const std::string& name) -> double {
    for (const auto& family : reg.snapshot()) {
      if (family.name == name && !family.samples.empty()) {
        return family.samples[0].value;
      }
    }
    return std::nan("");
  };
  EXPECT_EQ(value_of("depth"), 2.0);
  EXPECT_EQ(value_of("ticks_total"), 7.0);

  reg.remove_owner(&owner_a);
  bool depth_present = false;
  for (const auto& family : reg.snapshot()) {
    if (family.name == "depth" && !family.samples.empty()) {
      depth_present = true;
    }
  }
  EXPECT_FALSE(depth_present);
  EXPECT_EQ(value_of("ticks_total"), 7.0);  // other owner untouched
}

TEST(ObsRegistry, SnapshotIsSortedByFamilyName) {
  Registry reg;
  (void)reg.counter("zz_total", "z");
  (void)reg.counter("aa_total", "a");
  (void)reg.gauge("mm", "m");
  const auto families = reg.snapshot();
  ASSERT_EQ(families.size(), 3u);
  EXPECT_EQ(families[0].name, "aa_total");
  EXPECT_EQ(families[1].name, "mm");
  EXPECT_EQ(families[2].name, "zz_total");
}

// ---- histogram invariants ---------------------------------------------------

TEST(ObsHistogram, BucketAssignmentAndTotals) {
  Registry reg;
  obs::Histogram* h = reg.histogram("lat_seconds", "L.", {0.1, 1.0, 10.0});
  // le is inclusive: an observation exactly on a bound lands in that bucket.
  h->observe(0.1);
  h->observe(0.05);
  h->observe(0.5);
  h->observe(100.0);  // +Inf overflow bucket
  EXPECT_EQ(h->bucket_count(0), 2u);  // <= 0.1
  EXPECT_EQ(h->bucket_count(1), 1u);  // (0.1, 1.0]
  EXPECT_EQ(h->bucket_count(2), 0u);  // (1.0, 10.0]
  EXPECT_EQ(h->bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.1 + 0.05 + 0.5 + 100.0);
}

TEST(ObsHistogram, SnapshotBucketsSumToCount) {
  Registry reg;
  obs::Histogram* h = reg.histogram("lat_seconds", "L.", {1.0, 2.0});
  for (int i = 0; i < 100; ++i) h->observe(static_cast<double>(i % 4));
  const auto families = reg.snapshot();
  ASSERT_EQ(families.size(), 1u);
  const auto& hv = families[0].samples[0].histogram;
  ASSERT_TRUE(hv.has_value());
  ASSERT_EQ(hv->counts.size(), hv->bounds.size() + 1);  // +Inf slot
  std::uint64_t total = 0;
  for (const std::uint64_t c : hv->counts) total += c;
  EXPECT_EQ(total, hv->count);  // cumulative +Inf bucket == _count invariant
  EXPECT_EQ(hv->count, 100u);
}

// ---- Prometheus exposition --------------------------------------------------

TEST(ObsPrometheus, EscapingRules) {
  EXPECT_EQ(obs::escape_help("plain"), "plain");
  EXPECT_EQ(obs::escape_help("a\\b\nc"), "a\\\\b\\nc");
  EXPECT_EQ(obs::escape_help("say \"hi\""), "say \"hi\"");  // quotes pass
  EXPECT_EQ(obs::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(ObsPrometheus, FormatValue) {
  EXPECT_EQ(obs::format_value(0.0), "0");
  EXPECT_EQ(obs::format_value(1.0), "1");
  EXPECT_EQ(obs::format_value(-3.0), "-3");
  EXPECT_EQ(obs::format_value(1e15), "1000000000000000");
  EXPECT_EQ(obs::format_value(0.5), "0.5");
  EXPECT_EQ(obs::format_value(0.005), "0.005");
  EXPECT_EQ(obs::format_value(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(obs::format_value(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(obs::format_value(std::nan("")), "NaN");
}

TEST(ObsPrometheus, GoldenExposition) {
  // A hand-built registry with every metric kind and every escaping hazard;
  // the render must match this golden byte for byte. Families sort by name,
  // labels sort by label name, histogram buckets are cumulative with +Inf.
  Registry reg;
  obs::Histogram* lat =
      reg.histogram("demo_latency_seconds", "Latency.", {0.1, 0.5, 2.5});
  lat->observe(0.05);
  lat->observe(0.3);
  lat->observe(0.3);
  lat->observe(9.0);
  reg.counter("demo_jobs_total", "Jobs done, by outcome.",
              {{"outcome", "ok"}})
      ->inc(41);
  reg.counter("demo_jobs_total", "Jobs done, by outcome.",
              {{"outcome", "failed"}})
      ->inc();
  reg.gauge("demo_build_info", "Build metadata; value 1.\nSecond line \\ :)",
            {{"version", "lrsizer \"0.6.0\""}})
      ->set(1.0);

  const std::string expected =
      "# HELP demo_build_info Build metadata; value 1.\\nSecond line \\\\ :)\n"
      "# TYPE demo_build_info gauge\n"
      "demo_build_info{version=\"lrsizer \\\"0.6.0\\\"\"} 1\n"
      "# HELP demo_jobs_total Jobs done, by outcome.\n"
      "# TYPE demo_jobs_total counter\n"
      "demo_jobs_total{outcome=\"ok\"} 41\n"
      "demo_jobs_total{outcome=\"failed\"} 1\n"
      "# HELP demo_latency_seconds Latency.\n"
      "# TYPE demo_latency_seconds histogram\n"
      "demo_latency_seconds_bucket{le=\"0.1\"} 1\n"
      "demo_latency_seconds_bucket{le=\"0.5\"} 3\n"
      "demo_latency_seconds_bucket{le=\"2.5\"} 3\n"
      "demo_latency_seconds_bucket{le=\"+Inf\"} 4\n"
      "demo_latency_seconds_sum 9.65\n"
      "demo_latency_seconds_count 4\n";
  EXPECT_EQ(obs::render_prometheus(reg.snapshot()), expected);
}

TEST(ObsPrometheus, RenderedNamesAndLabelsAreAlwaysValid) {
  // Render a registry exercising odd-but-legal shapes and re-check every
  // sample line against the data-model grammar.
  Registry reg;
  (void)reg.counter("a:b_total", "h", {{"_x", "weird \" value\n"}});
  obs::Histogram* h = reg.histogram("h_seconds", "h", {1.0});
  h->observe(0.5);
  const std::string text = obs::render_prometheus(reg.snapshot());
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_TRUE(Registry::valid_metric_name(line.substr(0, name_end))) << line;
  }
}

// ---- HTTP request parser ----------------------------------------------------

obs::HttpRequestParser::State feed_string(obs::HttpRequestParser& parser,
                                          const std::string& bytes) {
  return parser.feed(bytes.data(), bytes.size());
}

TEST(ObsHttp, ParsesAWellFormedGet) {
  obs::HttpRequestParser parser;
  const auto state = feed_string(
      parser, "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
  ASSERT_EQ(state, obs::HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/metrics");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
}

TEST(ObsHttp, ParsesIncrementallyByteByByte) {
  obs::HttpRequestParser parser;
  const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
  for (std::size_t i = 0; i + 1 < request.size(); ++i) {
    ASSERT_EQ(parser.feed(&request[i], 1),
              obs::HttpRequestParser::State::kIncomplete)
        << "completed early at byte " << i;
  }
  EXPECT_EQ(parser.feed(&request[request.size() - 1], 1),
            obs::HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/healthz");
}

TEST(ObsHttp, BareLfIsRejected) {
  obs::HttpRequestParser parser;
  EXPECT_EQ(feed_string(parser, "GET /metrics HTTP/1.1\n\n"),
            obs::HttpRequestParser::State::kBad);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(ObsHttp, OversizedHeaderSectionIsRejected) {
  obs::HttpRequestParser small(64);
  EXPECT_EQ(feed_string(small, std::string(65, 'A')),
            obs::HttpRequestParser::State::kBad);
  EXPECT_EQ(small.error_status(), 400);
  // Default cap: an endless request line stops buffering at 8 KiB.
  obs::HttpRequestParser parser;
  EXPECT_EQ(feed_string(parser, "GET /" + std::string(9000, 'a')),
            obs::HttpRequestParser::State::kBad);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(ObsHttp, MalformedRequestLinesAreRejected) {
  const std::vector<std::string> bad = {
      "\r\n\r\n",                          // empty request line
      "GET\r\n\r\n",                       // one token
      "GET /metrics\r\n\r\n",              // two tokens
      "GET /metrics HTTP/1.1 extra\r\n\r\n",
      "GET /metrics FTP/1.1\r\n\r\n",      // not an HTTP version
      "G@T /metrics HTTP/1.1\r\n\r\n",     // non-token byte in method
      " GET /metrics HTTP/1.1\r\n\r\n",    // leading space
  };
  for (const std::string& request : bad) {
    obs::HttpRequestParser parser;
    EXPECT_EQ(feed_string(parser, request),
              obs::HttpRequestParser::State::kBad)
        << request;
    EXPECT_EQ(parser.error_status(), 400) << request;
    EXPECT_FALSE(parser.error_reason().empty()) << request;
  }
}

TEST(ObsHttp, NonGetMethodsParseAndRoutingRejectsThem) {
  // Any token is a valid method at the parse layer (405 is routing's job) —
  // so the parser must complete, not 400.
  obs::HttpRequestParser parser;
  ASSERT_EQ(feed_string(parser, "DELETE /metrics HTTP/1.1\r\n\r\n"),
            obs::HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().method, "DELETE");
}

TEST(ObsHttp, StateLatchesAfterCompletion) {
  obs::HttpRequestParser parser;
  ASSERT_EQ(feed_string(parser, "GET / HTTP/1.1\r\n\r\n"),
            obs::HttpRequestParser::State::kComplete);
  // One request per connection: trailing bytes don't reset or corrupt.
  EXPECT_EQ(feed_string(parser, "GET /other HTTP/1.1\r\n\r\n"),
            obs::HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/");
}

TEST(ObsHttp, ResponseHasContentLengthAndConnectionClose) {
  const std::string response =
      obs::http_response(200, "OK", "text/plain; charset=utf-8", "ok\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; charset=utf-8\r\n"),
            std::string::npos);
  const std::size_t body = response.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_EQ(response.substr(body + 4), "ok\n");
}

// ---- tracing ----------------------------------------------------------------

TEST(ObsTrace, NullSessionScopedSpanIsANoOp) {
  obs::ScopedSpan span(nullptr, "x", "y");
  span.arg("k", 1.0);
  span.finish();  // must not crash; nothing to record into
}

TEST(ObsTrace, DumpJsonIsValidChromeTraceFormat) {
  obs::TraceSession trace;
  {
    obs::ScopedSpan span(&trace, "outer", "test");
    span.arg("k", 3.0);
  }
  trace.record("inner", "test", 1, 2, {{"dual", 0.25}});
  ASSERT_EQ(trace.span_count(), 2u);

  const runtime::Json doc = runtime::Json::parse(trace.dump_json());
  EXPECT_EQ(doc.at("schema").as_string(), "lrsizer-trace-v1");
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& event : events) {
    EXPECT_EQ(event.at("ph").as_string(), "X");  // complete spans only
    EXPECT_TRUE(event.at("ts").is_number());
    EXPECT_TRUE(event.at("dur").is_number());
    EXPECT_TRUE(event.at("pid").is_number());
    EXPECT_TRUE(event.at("tid").is_number());
  }
  EXPECT_EQ(events[1].at("name").as_string(), "inner");
  EXPECT_DOUBLE_EQ(events[1].at("args").at("dual").as_number(), 0.25);
}

netlist::LogicNetlist traced_test_circuit() {
  netlist::GeneratorSpec spec;
  spec.num_gates = 60;
  spec.num_wires = 140;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.seed = 11;
  return netlist::generate_circuit(spec);
}

TEST(ObsTrace, FlowTracingCoversStagesIterationsAndPasses) {
  obs::TraceSession trace;
  api::SizingSession session(traced_test_circuit(), {});
  session.set_trace(&trace);
  ASSERT_TRUE(session.run_all().ok());
  const auto& result = session.result();

  std::size_t iterations = 0, passes = 0;
  std::set<std::string> names;
  bool iteration_has_metadata = false;
  for (const auto& span : trace.spans()) {
    names.insert(span.name);
    if (span.name == "ogws_iteration") {
      ++iterations;
      bool has_dual = false, has_kkt = false;
      for (const auto& [key, value] : span.args) {
        if (key == "dual") has_dual = true;
        if (key == "max_kkt_violation") has_kkt = true;
        (void)value;
      }
      iteration_has_metadata = iteration_has_metadata || (has_dual && has_kkt);
    }
    if (span.name == "lrs_pass") ++passes;
  }
  // One span per stage of the staged flow.
  for (const char* stage : {"elaborate", "simulate_and_order", "derive_bounds",
                            "size"}) {
    EXPECT_EQ(names.count(stage), 1u) << "missing stage span: " << stage;
  }
  // One span per OGWS iteration, each carrying its dual/KKT metadata, and at
  // least one LRS pass inside every iteration.
  EXPECT_EQ(iterations, static_cast<std::size_t>(result.ogws.iterations));
  EXPECT_TRUE(iteration_has_metadata);
  EXPECT_GE(passes, iterations);
}

/// Arg `key` of the span named `name` with index `nth` among those spans;
/// NaN when absent.
double span_arg(const obs::TraceSession& trace, const std::string& name,
                std::size_t nth, const std::string& key) {
  for (const auto& span : trace.spans()) {
    if (span.name != name) continue;
    if (nth-- > 0) continue;
    for (const auto& [k, value] : span.args) {
      if (k == key) return value;
    }
    break;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Replays the step-scale rule from a run's ogws_iteration spans and checks
/// each span's `step_scale` and `rho` against it: s starts at 1 and, from the
/// second iteration on, becomes min(1.05·s, 2) when the span's dual is above
/// the previous span's and max(0.7·s, 0.1) otherwise; ρ_k =
/// factor·s_k·step0/k^¼, and 0 on a stopping iteration. Returns how many
/// iterations grew s and how many shrank it.
std::pair<int, int> expect_steps_follow_the_dual(const obs::TraceSession& trace,
                                                 const core::OgwsResult& ogws,
                                                 double factor, double step0) {
  std::vector<std::map<std::string, double>> spans;
  for (const auto& span : trace.spans()) {
    if (span.name != "ogws_iteration") continue;
    spans.emplace_back(span.args.begin(), span.args.end());
  }
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(ogws.iterations));
  const bool stopped = ogws.converged || ogws.proved_infeasible;
  double s = 1.0;
  double previous_dual = 0.0;
  int grew = 0;
  int shrank = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int k = static_cast<int>(i) + 1;
    const double dual = spans[i].at("dual");
    if (k > 1) {
      const double before = s;
      s = dual > previous_dual ? std::min(1.05 * s, 2.0) : std::max(0.7 * s, 0.1);
      grew += s > before;
      shrank += s < before;
    }
    previous_dual = dual;
    EXPECT_GE(s, 0.1) << "k " << k;
    EXPECT_LE(s, 2.0) << "k " << k;
    EXPECT_EQ(spans[i].at("step_scale"), s) << "k " << k;
    const double rho = spans[i].at("rho");
    if (stopped && i + 1 == spans.size()) {
      EXPECT_EQ(rho, 0.0) << "k " << k;
    } else {
      EXPECT_DOUBLE_EQ(rho, factor * s * step0 / std::sqrt(std::sqrt(static_cast<double>(k))))
          << "k " << k;
    }
  }
  return {grew, shrank};
}

// Each iteration span names the step applied after it and the step scale
// behind it: ρ_k = s_k·step0/k^¼ for a cold run and a sizes-only seed, 2.5×
// that for a run seeded with multipliers, where s_k follows the spans' duals.
// The size span says whether the multipliers were seeded.
TEST(ObsTrace, IterationSpansCarryTheStepAndSeededRunsStepLargerThanCold) {
  const auto logic = traced_test_circuit();
  const core::FlowOptions options;
  const double step0 = options.ogws.step0;
  core::FlowOptions looser = options;
  looser.bound_factors.noise = 0.11;
  int grew = 0;
  int shrank = 0;
  auto tally = [&](std::pair<int, int> moves) {
    grew += moves.first;
    shrank += moves.second;
  };

  obs::TraceSession cold_trace;
  api::SizingSession cold(logic, options);
  cold.set_trace(&cold_trace);
  ASSERT_TRUE(cold.run_all().ok());
  ASSERT_GT(cold.result().ogws.iterations, 2);
  EXPECT_EQ(span_arg(cold_trace, "ogws_iteration", 0, "rho"), step0);
  tally(expect_steps_follow_the_dual(cold_trace, cold.result().ogws, 1.0, step0));
  EXPECT_EQ(span_arg(cold_trace, "size", 0, "seeded"), 0.0);

  obs::TraceSession seeded_trace;
  api::SizingSession seeded(logic, looser);
  seeded.set_trace(&seeded_trace);
  ASSERT_TRUE(seeded.warm_start_from(cold.result()).ok());
  ASSERT_TRUE(seeded.run_all().ok());
  ASSERT_GT(seeded.result().ogws.iterations, 2);
  EXPECT_EQ(span_arg(seeded_trace, "ogws_iteration", 0, "rho"), 2.5 * step0);
  tally(expect_steps_follow_the_dual(seeded_trace, seeded.result().ogws, 2.5, step0));
  EXPECT_EQ(span_arg(seeded_trace, "size", 0, "seeded"), 1.0);

  api::WarmSeed sizes_only;
  const netlist::Circuit& sized = cold.result().circuit;
  for (netlist::NodeId v = sized.first_component(); v < sized.end_component(); ++v) {
    sizes_only.sizes.emplace_back(v, sized.size(v));
  }
  obs::TraceSession sizes_trace;
  api::SizingSession sizes_seeded(logic, looser);
  sizes_seeded.set_trace(&sizes_trace);
  ASSERT_TRUE(sizes_seeded.warm_start(std::move(sizes_only)).ok());
  ASSERT_TRUE(sizes_seeded.run_all().ok());
  ASSERT_GT(sizes_seeded.result().ogws.iterations, 2);
  EXPECT_EQ(span_arg(sizes_trace, "ogws_iteration", 0, "rho"), step0);
  tally(expect_steps_follow_the_dual(sizes_trace, sizes_seeded.result().ogws, 1.0, step0));
  EXPECT_EQ(span_arg(sizes_trace, "size", 0, "seeded"), 0.0);

  // Not vacuous: the runs take both branches of the rule.
  EXPECT_GT(grew, 0);
  EXPECT_GT(shrank, 0);
}

TEST(ObsTrace, TracingDoesNotPerturbTheFlowBitIdentically) {
  const auto logic = traced_test_circuit();
  api::SizingSession plain(logic, {});
  ASSERT_TRUE(plain.run_all().ok());

  obs::TraceSession trace;
  api::SizingSession traced(logic, {});
  traced.set_trace(&trace);
  ASSERT_TRUE(traced.run_all().ok());
  EXPECT_GT(trace.span_count(), 0u);

  const core::FlowResult& a = plain.result();
  const core::FlowResult& b = traced.result();
  EXPECT_EQ(a.circuit.sizes(), b.circuit.sizes());  // bit-exact doubles
  EXPECT_EQ(a.ogws.iterations, b.ogws.iterations);
  EXPECT_EQ(a.ogws.converged, b.ogws.converged);
  EXPECT_EQ(a.final_metrics.delay_s, b.final_metrics.delay_s);
  EXPECT_EQ(a.final_metrics.area_um2, b.final_metrics.area_um2);
}

}  // namespace
