// lrsizer — command-line driver for the two-stage sizing flow.
//
//   lrsizer run <input>                  size one circuit
//   lrsizer batch --profiles all --jobs 8    size many circuits in parallel
//   lrsizer sweep --noise 0.05:0.25:0.05     noise-bound sweep
//   lrsizer profiles                     list the built-in Table-1 profiles
//   lrsizer version                      print the version string
//
// <input> is a `.bench` file path or a built-in profile name ("c17",
// "c432" ... "c7552"; profile inputs are synthesized with the Table-1
// generator). Reports go to stdout plus optional --json / --csv files;
// sized netlists are emitted as `.bench` with `# size` annotation comments
// (still parseable by any .bench reader, including `lrsizer run` itself —
// and reusable as `--warm-start` seeds).
//
// All sizing goes through api::SizingSession (via runtime::run_batch):
// `--progress` taps the per-iteration observer, Ctrl-C requests cooperative
// cancellation — in-flight jobs keep their best partial solution and the
// reports are still written (exit code 130).
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "eco/buffering.hpp"
#include "fault/fault.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "obs/trace.hpp"
#include "runtime/batch.hpp"
#include "runtime/cache.hpp"
#include "serve/listen.hpp"
#include "serve/server.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace {

using namespace lrsizer;

// Injected by tools/CMakeLists.txt from the project() version.
#ifndef LRSIZER_VERSION
#define LRSIZER_VERSION "0.0.0-dev"
#endif
constexpr const char* kVersion = "lrsizer " LRSIZER_VERSION;

constexpr const char* kUsage = R"(usage:
  lrsizer run <input> [options]               size one circuit
  lrsizer batch [inputs...] [options]         size many circuits in parallel
  lrsizer sweep --noise LO:HI:STEP [options]  sweep the noise-bound factor
  lrsizer serve [options]                     long-lived jsonl sizing service
  lrsizer merge <reports...> [options]        merge sharded sweep reports
  lrsizer profiles                            list built-in Table-1 profiles
  lrsizer version | --version                 print the version string
  lrsizer --help

inputs:
  a `.bench` file path, or a built-in profile name (c17, c432 ... c7552);
  profile inputs are synthesized to the paper's Table-1 #G/#W.

options:
  --profiles LIST   (batch) comma-separated profile names, or "all"
  --profile NAME    (sweep) circuit to sweep (default c432)
  --noise LO:HI:STEP (sweep) inclusive range of noise-bound factors
  --shard K/N       (batch/sweep) run only the global job list's indices
                    congruent to K mod N; the JSON report is annotated so
                    `lrsizer merge` can reassemble the full sweep
  --jobs N          concurrent jobs, each sized serially (default: cores)
  --seed N          generator/elaboration seed (default 1)
  --vectors N       stage-1 simulation vectors (default 32)
  --no-woss         keep the initial track order (skip stage-1 WOSS)
  --delay-bound F   A0 = F x initial delay  (default 1.00)
  --power-bound F   P0 = F x initial power  (default 0.15)
  --noise-bound F   X0 = F x initial noise  (default 0.10)
  --warm-start FILE (run) seed sizes from a sized .bench's # size annotations
  --buffer-long-wires [UM]  (run/batch) pre-pass: split every net whose
                    routed wire length exceeds UM um (default 1500) with a
                    chain of optimally sized repeaters (Orion closed-form
                    k/h) before sizing; add --shielded for the staggered-
                    neighbor coupling coefficients
  --shielded        (with --buffer-long-wires) assume shielded/staggered
                    neighbor switching (K_k=0.57, K_h=1.5 instead of the
                    unshielded worst case 1.51/2.2)
  --cache-dir DIR   persist completed results as lrsizer-cache-v1 JSON in
                    DIR and answer identical jobs from there (run/batch/
                    sweep/serve); without it batch/serve still dedupe
                    in-memory
  --cache-warm      (serve) on a cache miss, seed the job from the cached
                    result sharing the most output cones with the request:
                    the same circuit under other bounds reuses every size
                    and the multipliers, an edited revision its clean cones
                    (docs/ECO.md). Faster: seeded multipliers step at 2.5x
                    the cold schedule and converge in fewer iterations than
                    a cold run, but not bit-identically to it. Requests
                    naming "eco_base" use their named base even without
                    this flag.
  --cache-max-entries N  keep at most N completed results in the cache,
                    LRU-evicted (and unlinked from --cache-dir); 0 disables
                    result storage (default: unlimited)
  --cache-max-bytes N    cap the cache's accounted result bytes likewise
  --trace FILE      (run/batch/sweep) record a flow trace — one span per
                    stage, OGWS iteration and LRS pass — and write it as
                    Chrome trace-event JSON (lrsizer-trace-v1; open in
                    Perfetto / chrome://tracing). Results are bit-identical
                    with tracing on or off.
  --listen PORT     (serve) accept lrsizer-serve-v3 over TCP on
                    127.0.0.1:PORT instead of stdin/stdout; any number of
                    clients may connect concurrently (0 = pick an ephemeral
                    port, announced on stderr)
  --metrics-port N  (serve, with --listen) also answer HTTP GET /metrics
                    (Prometheus text format) and /healthz on 127.0.0.1:N
                    from the same event loop (0 = ephemeral, announced on
                    stderr; /healthz answers 503 "draining" after SIGTERM)
  --max-pending N   (serve) reject size requests beyond N unfinished jobs
                    with an "overloaded" error carrying a retry_after_ms
                    hint (backpressure; default: unbounded)
  --max-pending-per-client N  (serve) cap one client's unfinished jobs at N
                    so a single aggressive client cannot monopolize the
                    queue (rejected with "overloaded"; default: unbounded)
  --max-queue-cost N  (serve) admit a size request only while the summed
                    logic-gate count of unfinished jobs stays within N — a
                    cost-aware budget, so one c7552 counts like many c17s
                    (an empty queue always admits; default: unbounded)
  --default-deadline-ms N  (serve) deadline for size requests that carry no
                    "deadline_ms" of their own; a job cut by its deadline
                    answers with its best partial result, marked
                    "timeout": true (0 = no default deadline)
  --fault-inject POINT:TRIGGER  arm a deterministic fault-injection point
                    (testing/chaos drills; repeatable). TRIGGER is one of
                    always | nth=N | every=N | p=P[@SEED]. Points:
                    cache.read, cache.rename, cache.write, json.parse,
                    session.alloc, socket.write. $LRSIZER_FAULT adds
                    comma-separated specs the same way (docs/RELIABILITY.md)
  --stats-dump      (serve) print the final stats (jobs, cache, latency
                    percentiles — the stats response's content) on shutdown
  --progress        per-OGWS-iteration progress lines on stderr
  --out FILE        (run) write the sized .bench here
  --out-dir DIR     (batch/sweep) write one sized .bench per job into DIR
  --json FILE       write the JSON report ("-" for stdout)
  --csv FILE        write the CSV report ("-" for stdout)
  --quiet           errors only
  --verbose         per-job progress on stderr

serve reads newline-delimited JSON requests (docs/SERVING.md) and streams
accepted / progress / result / cancelled / stats / error responses;
identical jobs are answered from the result cache byte-identically
without re-running.

Ctrl-C cancels cooperatively: running jobs return their best partial
solution, reports are still written, and the exit code is 130.

SIGTERM asks `serve` to drain gracefully instead: new work is refused
with a "shutdown" error, /healthz turns 503, in-flight jobs run to
completion (or to their deadlines), and the process exits 0.
)";

struct CliOptions {
  std::string command;
  std::vector<std::string> inputs;
  std::string profiles;
  std::string sweep_profile = "c432";
  std::string sweep_range;
  std::uint64_t seed = 1;
  std::int32_t vectors = 32;
  bool use_woss = true;
  bool progress = false;
  double delay_bound = 1.0;
  double power_bound = 0.15;
  double noise_bound = 0.10;
  int jobs = 0;
  int shard_index = 0;
  int shard_count = 0;   ///< 0 = unsharded
  int listen_port = -1;  ///< -1 = stdin/stdout; 0 = ephemeral TCP port
  int metrics_port = -1;  ///< -1 = no metrics endpoint; 0 = ephemeral
  int max_pending = 0;
  int max_pending_per_client = 0;
  std::int64_t max_queue_cost = 0;
  std::int64_t default_deadline_ms = 0;
  std::vector<std::string> fault_specs;
  bool cache_warm = false;
  bool stats_dump = false;
  double buffer_long_wires = 0.0;  ///< threshold in um; 0 = pre-pass off
  bool shielded = false;
  std::size_t cache_max_entries = runtime::CacheLimits::kUnlimited;
  std::size_t cache_max_bytes = runtime::CacheLimits::kUnlimited;
  std::string cache_dir;
  std::string warm_start_path;
  std::string trace_path;
  std::string out_path;
  std::string out_dir;
  std::string json_path;
  std::string csv_path;
};

// Ctrl-C / SIGTERM request cooperative cancellation through this stop
// source. With no stop_callbacks registered, request_stop() is a plain
// atomic state transition — safe enough from a signal handler — and the
// sizing sessions poll the token once per OGWS iteration.
std::stop_source g_stop;  // NOLINT(cert-err58-cpp)

extern "C" void handle_interrupt(int) { g_stop.request_stop(); }

// For `serve`, SIGTERM means "drain": stop accepting work, let in-flight
// jobs finish (or hit their deadlines), then exit 0 — the orchestrator
// handshake. cmd_serve re-points SIGTERM here; a watcher thread turns the
// flag into Server::begin_drain() (not signal-safe to call directly).
std::atomic<bool> g_drain{false};

extern "C" void handle_terminate(int) {
  g_drain.store(true, std::memory_order_relaxed);
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "lrsizer: " << message << "\n\n" << kUsage;
  std::exit(1);
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t end = 0;
    const double d = std::stod(value, &end);
    if (end != value.size()) throw std::invalid_argument(value);
    return d;
  } catch (const std::exception&) {
    fail("expected a number after " + flag + ", got '" + value + "'");
  }
}

/// `value` as a whole number of the flag's field type. A value the type
/// cannot hold is refused by name, never narrowed into range.
template <class Int>
Int parse_int(const std::string& flag, const std::string& value) {
  Int v{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    fail(flag + " expects an integer in [" +
         std::to_string(std::numeric_limits<Int>::min()) + ", " +
         std::to_string(std::numeric_limits<Int>::max()) + "], got '" + value + "'");
  }
  if (ec != std::errc{} || ptr != end) {
    fail("expected an integer after " + flag + ", got '" + value + "'");
  }
  return v;
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions cli;
  if (argc < 2) fail("missing command");
  const std::string first = argv[1];
  if (first == "--help" || first == "-h") {
    std::cout << kUsage;
    std::exit(0);
  }
  if (first == "--version") {
    std::cout << kVersion << "\n";
    std::exit(0);
  }
  cli.command = first;

  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) fail(std::string("missing value after ") + argv[i]);
    return argv[++i];
  };

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profiles") cli.profiles = next_value(i);
    else if (arg == "--profile") cli.sweep_profile = next_value(i);
    else if (arg == "--noise") cli.sweep_range = next_value(i);
    else if (arg == "--jobs") cli.jobs = parse_int<int>(arg, next_value(i));
    else if (arg == "--shard") {
      const std::string value = next_value(i);
      const std::size_t slash = value.find('/');
      if (slash == std::string::npos) fail("--shard expects K/N");
      cli.shard_index = parse_int<int>(arg, value.substr(0, slash));
      cli.shard_count = parse_int<int>(arg, value.substr(slash + 1));
      if (cli.shard_count < 1 || cli.shard_index < 0 ||
          cli.shard_index >= cli.shard_count) {
        fail("--shard K/N needs 0 <= K < N");
      }
    }
    else if (arg == "--cache-dir") cli.cache_dir = next_value(i);
    else if (arg == "--cache-warm") cli.cache_warm = true;
    else if (arg == "--buffer-long-wires") {
      // The threshold is optional: consume the next token only when it
      // parses fully as a number, so `--buffer-long-wires c432` still
      // treats c432 as the input.
      cli.buffer_long_wires = 1500.0;
      if (i + 1 < argc) {
        char* end = nullptr;
        const double v = std::strtod(argv[i + 1], &end);
        if (end != argv[i + 1] && *end == '\0') {
          cli.buffer_long_wires = v;
          ++i;
        }
      }
      if (cli.buffer_long_wires <= 0.0) {
        fail("--buffer-long-wires threshold must be > 0 um");
      }
    }
    else if (arg == "--shielded") cli.shielded = true;
    else if (arg == "--cache-max-entries") {
      const auto v = parse_int<std::int64_t>(arg, next_value(i));
      if (v < 0) fail("--cache-max-entries must be >= 0");
      cli.cache_max_entries = static_cast<std::size_t>(v);
    }
    else if (arg == "--cache-max-bytes") {
      const auto v = parse_int<std::int64_t>(arg, next_value(i));
      if (v < 0) fail("--cache-max-bytes must be >= 0");
      cli.cache_max_bytes = static_cast<std::size_t>(v);
    }
    else if (arg == "--stats-dump") cli.stats_dump = true;
    else if (arg == "--listen") {
      cli.listen_port = parse_int<int>(arg, next_value(i));
      if (cli.listen_port < 0 || cli.listen_port > 65535) {
        fail("--listen expects a port in 0..65535 (0 = ephemeral)");
      }
    }
    else if (arg == "--metrics-port") {
      cli.metrics_port = parse_int<int>(arg, next_value(i));
      if (cli.metrics_port < 0 || cli.metrics_port > 65535) {
        fail("--metrics-port expects a port in 0..65535 (0 = ephemeral)");
      }
    }
    else if (arg == "--trace") cli.trace_path = next_value(i);
    else if (arg == "--max-pending") {
      cli.max_pending = parse_int<int>(arg, next_value(i));
      if (cli.max_pending < 0) fail("--max-pending must be >= 0");
    }
    else if (arg == "--max-pending-per-client") {
      cli.max_pending_per_client = parse_int<int>(arg, next_value(i));
      if (cli.max_pending_per_client < 0) {
        fail("--max-pending-per-client must be >= 0");
      }
    }
    else if (arg == "--max-queue-cost") {
      cli.max_queue_cost = parse_int<std::int64_t>(arg, next_value(i));
      if (cli.max_queue_cost < 0) fail("--max-queue-cost must be >= 0");
    }
    else if (arg == "--default-deadline-ms") {
      cli.default_deadline_ms = parse_int<std::int64_t>(arg, next_value(i));
      if (cli.default_deadline_ms < 0) fail("--default-deadline-ms must be >= 0");
    }
    else if (arg == "--fault-inject") cli.fault_specs.push_back(next_value(i));
    else if (arg == "--seed") cli.seed = parse_int<std::uint64_t>(arg, next_value(i));
    else if (arg == "--vectors") cli.vectors = parse_int<std::int32_t>(arg, next_value(i));
    else if (arg == "--no-woss") cli.use_woss = false;
    else if (arg == "--progress") cli.progress = true;
    else if (arg == "--warm-start") cli.warm_start_path = next_value(i);
    else if (arg == "--delay-bound") cli.delay_bound = parse_double(arg, next_value(i));
    else if (arg == "--power-bound") cli.power_bound = parse_double(arg, next_value(i));
    else if (arg == "--noise-bound") cli.noise_bound = parse_double(arg, next_value(i));
    else if (arg == "--out") cli.out_path = next_value(i);
    else if (arg == "--out-dir") cli.out_dir = next_value(i);
    else if (arg == "--json") cli.json_path = next_value(i);
    else if (arg == "--csv") cli.csv_path = next_value(i);
    else if (arg == "--quiet") util::set_log_level(util::LogLevel::kError);
    else if (arg == "--verbose" || arg == "-v") util::set_log_level(util::LogLevel::kDebug);
    else if (!arg.empty() && arg[0] == '-') fail("unknown option '" + arg + "'");
    else cli.inputs.push_back(arg);
  }
  return cli;
}

runtime::CacheLimits cache_limits(const CliOptions& cli) {
  runtime::CacheLimits limits;
  limits.max_entries = cli.cache_max_entries;
  limits.max_bytes = cli.cache_max_bytes;
  return limits;
}

core::FlowOptions flow_options(const CliOptions& cli) {
  core::FlowOptions options;
  options.elab.seed = cli.seed;  // wire lengths/driver strengths for .bench inputs
  options.num_vectors = cli.vectors;
  options.use_woss = cli.use_woss;
  options.bound_factors.delay = cli.delay_bound;
  options.bound_factors.power = cli.power_bound;
  options.bound_factors.noise = cli.noise_bound;
  return options;
}

bool is_known_profile(const std::string& name) {
  if (name == "c17") return true;
  for (const auto& profile : netlist::iscas85_profiles()) {
    if (profile.name == name) return true;
  }
  return false;
}

/// File stem without directory or extension ("path/c432.bench" -> "c432").
std::string input_stem(const std::string& input) {
  return std::filesystem::path(input).stem().string();
}

runtime::BatchJob load_job(const std::string& input, const CliOptions& cli) {
  runtime::BatchJob job;
  job.options = flow_options(cli);
  job.seed = cli.seed;
  const bool looks_like_file =
      input.find('/') != std::string::npos || input.find(".bench") != std::string::npos;
  if (looks_like_file || std::filesystem::exists(input)) {
    std::ifstream in(input);
    if (!in) fail("cannot open '" + input + "'");
    try {
      job.netlist = netlist::parse_bench(in);
    } catch (const netlist::BenchParseError& e) {
      std::cerr << "lrsizer: " << input << ": " << e.what() << "\n";
      std::exit(1);
    }
    job.name = input_stem(input);
    return job;
  }
  if (input == "c17") {
    job.netlist = netlist::parse_bench_string(netlist::kIscas85C17);
    job.name = "c17";
    return job;
  }
  if (!is_known_profile(input)) {
    fail("'" + input + "' is neither a readable .bench file nor a known profile");
  }
  return runtime::make_profile_job(input, cli.seed, job.options);
}

/// Load `# size` annotations from a previously sized .bench for warm-starting.
std::vector<std::pair<std::int32_t, double>> load_warm_sizes(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open warm-start file '" + path + "'");
  std::vector<std::pair<std::int32_t, double>> sizes;
  try {
    sizes = netlist::read_size_annotations(in);
  } catch (const netlist::BenchParseError& e) {
    fail(path + ": " + e.what());
  }
  if (sizes.empty()) {
    fail("warm-start file '" + path +
         "' has no '# size' annotations (was it written by lrsizer --out?)");
  }
  return sizes;
}

/// Shared batch options: worker count, Ctrl-C token, result cache, optional
/// --progress observer (one line per OGWS iteration; a single fprintf per
/// event keeps concurrent workers' lines whole).
runtime::BatchOptions make_batch_options(const CliOptions& cli, int jobs,
                                         runtime::ResultCache* cache,
                                         obs::TraceSession* trace = nullptr) {
  runtime::BatchOptions options;
  options.jobs = jobs;
  options.stop = g_stop.get_token();
  options.cache = cache;
  options.trace = trace;
  if (cli.progress) {
    options.observer = [](const std::string& job, const core::OgwsIterate& it) {
      std::fprintf(stderr,
                   "[%s] k=%-4d area=%-10.1f dual=%-10.1f gap=%6.2f%% viol=%6.2f%%\n",
                   job.c_str(), it.k, it.area, it.dual, 100.0 * it.rel_gap,
                   100.0 * it.max_violation);
    };
  }
  return options;
}

/// --trace plumbing: a TraceSession when the flag was given, else null (the
/// flow's tracing hooks are no-ops on null).
std::unique_ptr<obs::TraceSession> make_trace(const CliOptions& cli) {
  if (cli.trace_path.empty()) return nullptr;
  return std::make_unique<obs::TraceSession>();
}

/// Write the collected trace next to the other reports; like them, a failed
/// write is a hard error (the user asked for the artifact).
void write_trace(const obs::TraceSession* trace, const CliOptions& cli) {
  if (!trace) return;
  std::string error;
  if (!trace->write_file(cli.trace_path, &error)) {
    std::cerr << "lrsizer: --trace: " << error << "\n";
    std::exit(2);
  }
  std::fprintf(stderr, "lrsizer: wrote trace (%zu spans) to %s\n",
               trace->span_count(), cli.trace_path.c_str());
}

/// Sized netlist as .bench text: the round-trippable netlist followed by
/// `# size <node> <kind> <net> <value>` comment lines (ignored by parsers).
std::string sized_bench_text(const runtime::JobOutcome& outcome) {
  std::ostringstream header;
  const core::FlowSummary& s = outcome.summary;
  header << "sized by " << kVersion << ": " << outcome.name << " seed "
         << outcome.seed << "; " << s.iterations << " iterations, final delay "
         << s.final_metrics.delay_s * 1e12 << " ps, noise "
         << s.final_metrics.noise_f * 1e12 << " pF, area "
         << s.final_metrics.area_um2 << " um2";
  std::string text = netlist::to_bench_string(outcome.netlist, header.str());

  std::ostringstream sizes;
  sizes << "#\n# component sizes: node kind net size\n";
  const netlist::Circuit& circuit = outcome.flow->circuit;
  sizes.precision(17);
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    const std::int32_t net = outcome.flow->net_of_node[static_cast<std::size_t>(v)];
    const std::string& net_name =
        net >= 0 ? outcome.netlist.gate(net).name : std::string("?");
    sizes << "# size " << v << ' ' << (circuit.is_gate(v) ? "gate" : "wire") << ' '
          << net_name << ' ' << circuit.size(v) << '\n';
  }
  return text + sizes.str();
}

void write_file(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return;
  }
  std::ofstream out(path);
  if (!out) fail("cannot write '" + path + "'");
  out << content;
}

void write_reports(const runtime::BatchResult& batch, const CliOptions& cli) {
  if (!cli.json_path.empty()) {
    write_file(cli.json_path, runtime::batch_json(batch).dump(2) + "\n");
  }
  if (!cli.csv_path.empty()) write_file(cli.csv_path, runtime::batch_csv(batch));
  if (!cli.out_dir.empty()) {
    std::filesystem::create_directories(cli.out_dir);
    std::size_t skipped_cached = 0;
    for (const auto& outcome : batch.jobs) {
      // Cross-batch cache hits carry a summary but no FlowResult, so there
      // is no sized netlist to write (the run that populated the cache
      // wrote it).
      if (outcome.ok && !outcome.flow) {
        ++skipped_cached;
        continue;
      }
      if (!outcome.ok) continue;
      const auto path =
          std::filesystem::path(cli.out_dir) / (outcome.name + ".bench");
      write_file(path.string(), sized_bench_text(outcome));
    }
    if (skipped_cached > 0) {
      std::fprintf(stderr,
                   "lrsizer: --out-dir: %zu cache-hit job(s) have no sized "
                   ".bench to write (the runs that populated the cache wrote "
                   "them; re-run without --cache-dir to regenerate)\n",
                   skipped_cached);
    }
  }
}

/// --buffer-long-wires: run the repeater-insertion pre-pass on every job's
/// netlist before sizing (eco/buffering.hpp). The transform is
/// deterministic, so cache keys stay meaningful: the buffered netlist IS
/// the job's input.
void apply_buffering(std::vector<runtime::BatchJob>* jobs,
                     const CliOptions& cli) {
  if (cli.buffer_long_wires <= 0.0) return;
  eco::BufferingOptions buffering;
  buffering.length_threshold_um = cli.buffer_long_wires;
  buffering.shielded = cli.shielded;
  for (auto& job : *jobs) {
    eco::BufferingResult result =
        eco::buffer_long_wires(job.netlist, job.options, buffering);
    if (result.repeaters > 0) {
      std::fprintf(stderr,
                   "lrsizer: %s: inserted %lld repeater(s) across %zu long "
                   "net(s) (> %.0f um)\n",
                   job.name.c_str(), static_cast<long long>(result.repeaters),
                   result.nets.size(), cli.buffer_long_wires);
    }
    job.netlist = std::move(result.netlist);
  }
}

/// --shard K/N: keep only the global job list's indices ≡ K (mod N). The
/// filter runs on the fully assembled, deterministic job list, so N shard
/// runs partition exactly the jobs one unsharded run would execute.
std::vector<runtime::BatchJob> apply_shard(std::vector<runtime::BatchJob> jobs,
                                           const CliOptions& cli) {
  if (cli.shard_count == 0) return jobs;
  std::vector<runtime::BatchJob> kept;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % static_cast<std::size_t>(cli.shard_count) ==
        static_cast<std::size_t>(cli.shard_index)) {
      kept.push_back(std::move(jobs[i]));
    }
  }
  return kept;
}

void print_batch_table(const runtime::BatchResult& batch) {
  util::TextTable table({"job", "#G", "#W", "ite", "noise F(pF)", "delay F(ps)",
                         "pow F(mW)", "area F(um2)", "gap%", "time(s)", "mem(KB)"});
  for (const auto& job : batch.jobs) {
    if (!job.ok) {
      table.add_row({job.name, "-", "-", "-",
                     job.cancelled ? "CANCELLED: " + job.error : "FAILED: " + job.error,
                     "", "", "", "", util::TextTable::num(job.seconds, 2), ""});
      continue;
    }
    const core::FlowSummary& s = job.summary;
    table.add_row(
        {job.cancelled ? job.name + " (partial)" : job.name,
         util::TextTable::integer(s.num_gates),
         util::TextTable::integer(s.num_wires),
         util::TextTable::integer(s.iterations),
         util::TextTable::num(s.final_metrics.noise_f * 1e12, 2),
         util::TextTable::num(s.final_metrics.delay_s * 1e12, 1),
         util::TextTable::num(s.final_metrics.power_w * 1e3, 2),
         util::TextTable::num(s.final_metrics.area_um2, 0),
         util::TextTable::num(100.0 * s.rel_gap, 2),
         util::TextTable::num(job.seconds, 2),
         util::TextTable::integer(static_cast<long long>(s.memory_bytes / 1024))});
  }
  table.print(std::cout);
  std::printf(
      "\n%zu job(s), %d worker(s): wall %.2f s, cpu %.2f s, speedup %.2fx, "
      "peak mem %zu KB\n",
      batch.jobs.size(), batch.num_workers, batch.wall_seconds,
      batch.total_job_seconds, batch.speedup(), batch.peak_memory_bytes / 1024);
  if (batch.num_cancelled() > 0) {
    std::printf("%zu job(s) cancelled — partial results above/in the reports\n",
                batch.num_cancelled());
  }
  if (batch.num_cache_hits() > 0) {
    std::printf("%zu job(s) answered from cache without re-running\n",
                batch.num_cache_hits());
  }
}

/// Reports are written even for cancelled batches (the partial-report
/// contract); the exit code then follows shell convention for SIGINT.
int finish(const runtime::BatchResult& batch, const CliOptions& cli) {
  write_reports(batch, cli);
  if (batch.num_failed() > 0) return 2;
  return batch.num_cancelled() > 0 ? 130 : 0;
}

// ---- commands ---------------------------------------------------------------

int cmd_run(const CliOptions& cli) {
  if (cli.inputs.size() != 1) fail("run expects exactly one input");
  if (cli.shard_count > 0) fail("--shard only applies to batch/sweep");
  if (cli.cache_warm) fail("--cache-warm only applies to serve");
  std::vector<runtime::BatchJob> jobs;
  jobs.push_back(load_job(cli.inputs[0], cli));
  apply_buffering(&jobs, cli);
  if (!cli.warm_start_path.empty()) {
    jobs[0].warm.sizes = load_warm_sizes(cli.warm_start_path);
  }
  // A single run only benefits from the cache when it persists across
  // processes; without --cache-dir the run stays cache-free.
  runtime::ResultCache cache(cli.cache_dir, cache_limits(cli));
  const auto trace = make_trace(cli);
  const auto batch = runtime::run_batch(
      std::move(jobs),
      make_batch_options(cli, 1, cli.cache_dir.empty() ? nullptr : &cache,
                         trace.get()));
  write_trace(trace.get(), cli);
  const auto& outcome = batch.jobs[0];
  if (!outcome.ok) {
    std::cerr << "lrsizer: job " << (outcome.cancelled ? "cancelled" : "failed")
              << ": " << outcome.error << "\n";
    // The partial-report contract holds even without a result: requested
    // report files are still written (with the error/cancelled markers).
    write_reports(batch, cli);
    return outcome.cancelled ? 130 : 2;
  }

  const core::FlowSummary& s = outcome.summary;
  util::TextTable table({"metric", "bound", "init", "final"});
  table.add_row({"noise (pF)", util::TextTable::num(s.bound_noise_f * 1e12, 3),
                 util::TextTable::num(s.init_metrics.noise_f * 1e12, 3),
                 util::TextTable::num(s.final_metrics.noise_f * 1e12, 3)});
  table.add_row({"delay (ps)", util::TextTable::num(s.bound_delay_s * 1e12, 1),
                 util::TextTable::num(s.init_metrics.delay_s * 1e12, 1),
                 util::TextTable::num(s.final_metrics.delay_s * 1e12, 1)});
  table.add_row({"cap (pF)", util::TextTable::num(s.bound_cap_f * 1e12, 3),
                 util::TextTable::num(s.init_metrics.cap_f * 1e12, 3),
                 util::TextTable::num(s.final_metrics.cap_f * 1e12, 3)});
  table.add_row({"area (um2)", "-", util::TextTable::num(s.init_metrics.area_um2, 0),
                 util::TextTable::num(s.final_metrics.area_um2, 0)});
  std::printf("%s: #G=%d #W=%d, %s after %d iterations (gap %.2f%%)\n",
              outcome.name.c_str(), s.num_gates, s.num_wires,
              s.cancelled   ? "cancelled (partial result)"
              : s.converged ? "converged"
                            : "stopped",
              s.iterations, 100.0 * s.rel_gap);
  table.print(std::cout);
  std::printf("stage1 %.3f s, stage2 %.3f s, mem %zu KB\n", s.stage1_seconds,
              s.stage2_seconds, s.memory_bytes / 1024);

  if (outcome.cache_hit) {
    std::printf("(answered from cache: %zu cache hit(s))\n",
                batch.num_cache_hits());
  }
  if (!cli.out_path.empty()) {
    if (outcome.flow) {
      write_file(cli.out_path, sized_bench_text(outcome));
    } else {
      std::cerr << "lrsizer: --out skipped: the cached result carries no "
                   "netlist (the run that populated the cache wrote it)\n";
    }
  }
  return finish(batch, cli);
}

int cmd_batch(const CliOptions& cli) {
  // Warm sizes are node-id-keyed against one specific elaborated circuit;
  // silently reusing them across a heterogeneous batch would mislead.
  if (!cli.warm_start_path.empty()) fail("--warm-start only applies to 'run'");
  if (cli.cache_warm) fail("--cache-warm only applies to serve");
  std::vector<runtime::BatchJob> jobs;
  if (!cli.profiles.empty()) {
    std::vector<std::string> names;
    if (cli.profiles == "all") {
      for (const auto& profile : netlist::iscas85_profiles()) {
        names.push_back(profile.name);
      }
    } else {
      std::stringstream ss(cli.profiles);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) names.push_back(name);
      }
    }
    for (const auto& name : names) jobs.push_back(load_job(name, cli));
  }
  for (const auto& input : cli.inputs) jobs.push_back(load_job(input, cli));
  if (jobs.empty()) fail("batch needs --profiles and/or input files");
  apply_buffering(&jobs, cli);
  jobs = apply_shard(std::move(jobs), cli);

  // Batches always dedupe through a cache (memory-only without --cache-dir):
  // byte-identical jobs in one sweep run once (satisfying `cache_hits` in
  // the rollup) and identical jobs across runs hit the disk cache.
  runtime::ResultCache cache(cli.cache_dir, cache_limits(cli));
  const auto trace = make_trace(cli);
  auto batch = runtime::run_batch(
      std::move(jobs), make_batch_options(cli, cli.jobs, &cache, trace.get()));
  write_trace(trace.get(), cli);
  batch.shard_index = cli.shard_index;
  batch.shard_count = cli.shard_count;
  print_batch_table(batch);
  return finish(batch, cli);
}

int cmd_sweep(const CliOptions& cli) {
  if (!cli.warm_start_path.empty()) fail("--warm-start only applies to 'run'");
  if (cli.cache_warm) fail("--cache-warm only applies to serve");
  if (cli.buffer_long_wires > 0.0) {
    fail("--buffer-long-wires only applies to run/batch");
  }
  if (cli.sweep_range.empty()) fail("sweep needs --noise LO:HI:STEP");
  double lo = 0.0, hi = 0.0, step = 0.0;
  {
    std::stringstream ss(cli.sweep_range);
    std::string part;
    std::vector<std::string> parts;
    while (std::getline(ss, part, ':')) parts.push_back(part);
    if (parts.size() != 3) fail("--noise expects LO:HI:STEP");
    lo = parse_double("--noise", parts[0]);
    hi = parse_double("--noise", parts[1]);
    step = parse_double("--noise", parts[2]);
    if (step <= 0.0 || hi < lo) fail("--noise range must have step > 0 and HI >= LO");
  }
  const std::string base =
      cli.inputs.empty() ? cli.sweep_profile : cli.inputs[0];
  // Load/synthesize the input once; every sweep point copies it and varies
  // only the noise-bound factor.
  const runtime::BatchJob base_job = load_job(base, cli);

  std::vector<runtime::BatchJob> jobs;
  // Half a step of slack so floating-point accumulation still includes HI.
  for (double factor = lo; factor <= hi + step / 2; factor += step) {
    runtime::BatchJob job = base_job;
    job.options.bound_factors.noise = factor;
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "@noise%.4g", factor);
    job.name += suffix;
    jobs.push_back(std::move(job));
  }
  jobs = apply_shard(std::move(jobs), cli);

  runtime::ResultCache cache(cli.cache_dir, cache_limits(cli));
  const auto trace = make_trace(cli);
  auto batch = runtime::run_batch(
      std::move(jobs), make_batch_options(cli, cli.jobs, &cache, trace.get()));
  write_trace(trace.get(), cli);
  batch.shard_index = cli.shard_index;
  batch.shard_count = cli.shard_count;
  print_batch_table(batch);
  return finish(batch, cli);
}

int cmd_serve(const CliOptions& cli) {
  if (cli.metrics_port >= 0 && cli.listen_port < 0) {
    fail("--metrics-port requires --listen");
  }
  if (cli.buffer_long_wires > 0.0) {
    fail("--buffer-long-wires only applies to run/batch");
  }
  runtime::ResultCache cache(cli.cache_dir, cache_limits(cli));
  serve::ServerOptions options;
  // Workers default to the core count, as run_batch's do.
  options.jobs = cli.jobs > 0
                     ? cli.jobs
                     : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  options.base_options = flow_options(cli);
  options.cache = &cache;
  options.cache_warm = cli.cache_warm;
  options.max_pending = cli.max_pending;
  options.max_pending_per_client = cli.max_pending_per_client;
  options.max_queue_cost = cli.max_queue_cost;
  options.default_deadline_ms = cli.default_deadline_ms;
  options.version = kVersion;

  // main() pointed SIGTERM at the Ctrl-C handler; for serve it means
  // "drain gracefully" instead (see the usage text).
  std::signal(SIGTERM, handle_terminate);

  // The server registers stop_callbacks on its token; g_stop must stay
  // callback-free so request_stop() remains safe inside the signal handler
  // (see its comment). A watcher thread bridges the signal flags onto the
  // server — hard stop (Ctrl-C) through the server's own stop source,
  // drain (SIGTERM) through begin_drain() — running both on a normal
  // thread. The watcher keeps polling after a drain begins so Ctrl-C can
  // still cut a drain short.
  std::stop_source serve_stop;
  options.stop = serve_stop.get_token();
  std::atomic<bool> serving{true};
  std::atomic<serve::Server*> drain_target{nullptr};
  std::thread watcher([&serve_stop, &serving, &drain_target] {
    while (serving.load(std::memory_order_relaxed)) {
      if (g_stop.stop_requested()) {
        serve_stop.request_stop();
        break;
      }
      if (g_drain.load(std::memory_order_relaxed)) {
        serve::Server* server = drain_target.load(std::memory_order_acquire);
        if (server != nullptr) server->begin_drain();  // idempotent
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  const auto stop_watcher = [&serving, &drain_target, &watcher] {
    serving.store(false, std::memory_order_relaxed);
    drain_target.store(nullptr, std::memory_order_release);
    watcher.join();
  };

  const auto dump_stats = [&cli](const serve::Server& server) {
    if (!cli.stats_dump) return;
    const std::string text = serve::format_stats_text(server.stats_snapshot());
    std::fwrite(text.data(), 1, text.size(), stderr);
    std::fflush(stderr);
  };

  if (cli.listen_port >= 0) {
    serve::Server server(options);
    drain_target.store(&server, std::memory_order_release);
    serve::ListenOptions listen;
    listen.port = static_cast<std::uint16_t>(cli.listen_port);
    listen.metrics_port = cli.metrics_port;
    const int rc = serve::listen_and_serve(listen, server);
    stop_watcher();
    dump_stats(server);
    // A completed drain is a clean exit (0); only a hard stop maps to 130.
    return g_stop.stop_requested() ? 130 : rc;
  }

  serve::Server server(options, [](const std::string& line) {
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  });
  drain_target.store(&server, std::memory_order_release);
  serve::serve_stdin(server, options.stop);
  stop_watcher();
  const serve::StatsSnapshot stats = server.stats_snapshot();
  std::fprintf(stderr,
               "lrsizer serve: %zu accepted, %zu completed (%zu from cache), "
               "%zu cancelled, %zu errors\n",
               stats.accepted, stats.completed, stats.cache_hits,
               stats.cancelled, stats.errors);
  dump_stats(server);
  return g_stop.stop_requested() ? 130 : 0;
}

int cmd_merge(const CliOptions& cli) {
  if (cli.inputs.empty()) fail("merge needs shard report files");
  std::vector<runtime::Json> shards;
  for (const auto& path : cli.inputs) {
    std::ifstream in(path);
    if (!in) fail("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      shards.push_back(runtime::Json::parse(buffer.str()));
    } catch (const runtime::JsonParseError& e) {
      std::cerr << "lrsizer: " << path << ": " << e.what() << "\n";
      return 2;
    }
  }
  runtime::Json merged;
  try {
    merged = runtime::merge_batch_reports(shards);
  } catch (const std::exception& e) {
    // invalid_argument from merge's own validation, or out_of_range /
    // bad_variant_access from structurally malformed report JSON — either
    // way a readable rejection, not an abort.
    std::cerr << "lrsizer: " << e.what() << "\n";
    return 2;
  }
  write_file(cli.json_path.empty() ? "-" : cli.json_path, merged.dump(2) + "\n");
  return 0;
}

int cmd_profiles() {
  util::TextTable table({"name", "#G", "#W", "PI", "PO", "depth"});
  for (const auto& profile : netlist::iscas85_profiles()) {
    table.add_row({profile.name, util::TextTable::integer(profile.num_gates),
                   util::TextTable::integer(profile.num_wires),
                   util::TextTable::integer(profile.num_inputs),
                   util::TextTable::integer(profile.num_outputs),
                   util::TextTable::integer(profile.depth)});
  }
  table.print(std::cout);
  std::printf("(plus \"c17\": the real ISCAS85 c17 netlist, parsed not generated)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  const CliOptions cli = parse_args(argc, argv);
  if (cli.command == "version") {
    std::cout << kVersion << "\n";
    return 0;
  }
  // Arm fault injection before any command builds a Server, so the
  // per-point lrsizer_fault_injected_total metrics cover every armed
  // point. Disarmed (the default), every fault point is one relaxed
  // atomic load.
  {
    std::string error;
    for (const std::string& spec : cli.fault_specs) {
      if (!fault::arm(spec, &error)) fail("--fault-inject: " + error);
    }
    if (fault::arm_from_env(&error) < 0) fail("$LRSIZER_FAULT: " + error);
  }
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
  if (cli.command == "run") return cmd_run(cli);
  if (cli.command == "batch") return cmd_batch(cli);
  if (cli.command == "sweep") return cmd_sweep(cli);
  if (cli.command == "serve") return cmd_serve(cli);
  if (cli.command == "merge") return cmd_merge(cli);
  if (cli.command == "profiles") return cmd_profiles();
  fail("unknown command '" + cli.command + "'");
}
