// Failure injection and randomized stress: wrong inputs must die loudly
// (the checked-assert contract), the full flow must uphold its invariants
// under arbitrary option combinations, and — via the src/fault framework
// (docs/RELIABILITY.md) — the serving stack must degrade cleanly when
// storage, allocation, parsing, or client sockets fail underneath it.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#endif

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "fault/fault.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "runtime/cache.hpp"
#include "runtime/json.hpp"
#include "serve/listen.hpp"
#include "serve/server.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "timing/loads.hpp"
#include "util/memtrack.hpp"
#include "util/rng.hpp"

namespace {

using namespace lrsizer;
using lrsizer::test_support::ChainCircuit;
using runtime::Json;

// ---- failure injection ------------------------------------------------------

TEST(FailureDeath, SimulatorRejectsWrongVectorWidth) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  EXPECT_DEATH(sim::simulate(logic, {{1, 0, 1}}), "vector width");
}

TEST(FailureDeath, SimulatorRejectsGateDelayBeyondPeriod) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  sim::SimOptions options;
  options.vector_period = 4;
  options.gate_delay = 8;
  EXPECT_DEATH(sim::simulate(logic, {{1, 0, 1, 0, 1}}, options), "gate_delay");
}

TEST(FailureDeath, LoadsRejectWrongSizeVector) {
  auto c = ChainCircuit::make();
  const auto coupling = test_support::no_coupling(c.circuit);
  std::vector<double> wrong(3, 1.0);  // must be num_nodes() long
  timing::LoadAnalysis loads;
  EXPECT_DEATH(timing::compute_loads(c.circuit, coupling, wrong, loads),
               "x.size");
}

TEST(FailureDeath, WireNeedsPositiveLength) {
  netlist::CircuitBuilder b;
  EXPECT_DEATH(b.add_wire(0.0), "length");
  EXPECT_DEATH(b.add_wire(-3.0), "length");
}

TEST(FailureDeath, GeneratorRejectsImpossibleWireBudget) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 10;
  spec.num_wires = 5;  // fewer wires than gates+outputs can use
  EXPECT_DEATH(netlist::generate_circuit(spec), "num_wires");
}

TEST(FailureDeath, GeneratorRejectsOverfullWireBudget) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 10;
  spec.num_wires = 500;  // beyond the fanin cap of 5 per gate
  EXPECT_DEATH(netlist::generate_circuit(spec), "num_wires");
}

TEST(FailureDeath, UnknownProfileName) {
  EXPECT_DEATH(netlist::iscas85_profile("c9999"), "unknown");
}

// ---- randomized option stress -----------------------------------------------

struct StressCase {
  std::uint64_t seed;
};

class FlowStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowStress, InvariantsHoldUnderRandomOptions) {
  util::Rng rng(GetParam());

  netlist::GeneratorSpec spec;
  spec.num_gates = rng.uniform_int(40, 160);
  spec.num_inputs = rng.uniform_int(6, 24);
  spec.num_outputs = rng.uniform_int(4, 12);
  spec.depth = rng.uniform_int(5, 18);
  spec.num_wires =
      rng.uniform_int(spec.num_gates + spec.num_outputs + 8, 4 * spec.num_gates);
  spec.seed = rng.next_u64();

  core::FlowOptions options;
  options.elab = spec.elab;
  options.elab.max_star_fanout = rng.uniform_int(3, 10);
  options.elab.segments_per_wire = 1;
  options.elab.differentiate_gate_types = rng.bernoulli(0.5);
  spec.elab = options.elab;  // keep the generator's oracle consistent
  options.num_vectors = rng.uniform_int(8, 40);
  options.pattern_seed = rng.next_u64();
  options.channels.max_channel_width = rng.uniform_int(6, 40);
  options.neighbors.fold_miller = rng.bernoulli(0.7);
  options.use_woss = rng.bernoulli(0.8);
  options.bound_factors.delay = rng.uniform(1.0, 1.4);
  options.bound_factors.power = rng.uniform(0.14, 0.5);
  options.bound_factors.noise = rng.uniform(0.12, 0.6);
  if (rng.bernoulli(0.3)) {
    options.bound_factors.per_net_noise = rng.uniform(0.2, 0.8);
  }

  const auto logic = netlist::generate_circuit(spec);
  const auto flow = test_support::run_flow(logic, options);

  // Structural invariants.
  EXPECT_EQ(flow.circuit.num_gates(), spec.num_gates);
  EXPECT_EQ(flow.circuit.num_wires(), spec.num_wires);
  flow.circuit.validate();

  // Solution invariants: box bounds always; feasibility within a generous
  // tolerance (a few configurations are legitimately tight).
  for (netlist::NodeId v = flow.circuit.first_component();
       v < flow.circuit.end_component(); ++v) {
    EXPECT_GE(flow.circuit.size(v), flow.circuit.lower_bound(v) - 1e-12);
    EXPECT_LE(flow.circuit.size(v), flow.circuit.upper_bound(v) + 1e-12);
  }
  EXPECT_LE(flow.ogws.max_violation, 0.10);
  EXPECT_LE(flow.final_metrics.area_um2, flow.init_metrics.area_um2 * 1.001);
  EXPECT_LE(flow.ordering_cost_woss, flow.ordering_cost_initial + 1e-12);
  EXPECT_GT(flow.memory_bytes, util::kMemoryBaseBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowStress,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107, 108,
                                           109, 110));

// ---- deterministic fault injection (src/fault) ------------------------------

/// Disarm on both ends of every test: a leaked rule would fail unrelated
/// suites in ways that look like real bugs. The framework is process-global
/// and gtest runs tests sequentially, so no two fault tests overlap.
struct FaultGuard {
  FaultGuard() { fault::reset(); }
  ~FaultGuard() { fault::reset(); }
};

TEST(Fault, DisarmedIsTheDefaultAndPointsNeverFire) {
  FaultGuard guard;
  EXPECT_FALSE(fault::armed());
  for (const std::string& point : fault::known_points()) {
    EXPECT_FALSE(fault::should_fail(point.c_str())) << point;
  }
  // The macro short-circuits on the armed flag, so this is also the
  // disarmed fast path every production call site takes.
  EXPECT_FALSE(LRSIZER_FAULT_POINT("cache.read"));
  EXPECT_TRUE(fault::armed_points().empty());
}

TEST(Fault, TriggerGrammarAlwaysNthEveryAndSeededProbability) {
  FaultGuard guard;
  ASSERT_TRUE(fault::arm("cache.read:always"));
  EXPECT_TRUE(fault::armed());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fault::should_fail("cache.read"));
  EXPECT_EQ(fault::injected_count("cache.read"), 5u);
  // Arming one point leaves the others disarmed.
  EXPECT_FALSE(fault::should_fail("cache.write"));

  // nth=3 fires on exactly the third hit, once.
  ASSERT_TRUE(fault::arm("cache.read:nth=3"));  // re-arming resets counters
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(fault::should_fail("cache.read"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(fault::injected_count("cache.read"), 1u);

  // every=2 fires on hits 2, 4, 6, ...
  ASSERT_TRUE(fault::arm("cache.read:every=2"));
  fired.clear();
  for (int i = 0; i < 6; ++i) fired.push_back(fault::should_fail("cache.read"));
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false, true}));

  // Probabilistic triggers are seeded, hence reproducible: the same spec
  // yields the same firing sequence, and the extremes are exact.
  ASSERT_TRUE(fault::arm("cache.read:p=1"));
  EXPECT_TRUE(fault::should_fail("cache.read"));
  ASSERT_TRUE(fault::arm("cache.read:p=0@42"));
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(fault::should_fail("cache.read"));
  ASSERT_TRUE(fault::arm("cache.read:p=0.5@42"));
  std::vector<bool> first;
  for (int i = 0; i < 32; ++i) first.push_back(fault::should_fail("cache.read"));
  ASSERT_TRUE(fault::arm("cache.read:p=0.5@42"));
  std::vector<bool> second;
  for (int i = 0; i < 32; ++i) second.push_back(fault::should_fail("cache.read"));
  EXPECT_EQ(first, second);

  fault::reset();
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::injected_count("cache.read"), 0u);
}

TEST(Fault, BadSpecsAreRejectedWithAReason) {
  FaultGuard guard;
  const char* bad[] = {
      "",                      // empty
      "cache.read",            // missing trigger
      "warp.core:always",      // unknown point
      "cache.read:sometimes",  // unknown trigger
      "cache.read:nth=0",      // counts are 1-based
      "cache.read:every=0",
      "cache.read:nth=",       // no digits
      "cache.read:p=1.5",      // probability out of [0, 1]
      "cache.read:p=x",
      "cache.read:p=0.5@0",    // xorshift64 seeds must be nonzero
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(fault::arm(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // An unknown point names the valid ones in the message (typo debugging).
  std::string error;
  ASSERT_FALSE(fault::arm("warp.core:always", &error));
  EXPECT_NE(error.find("cache.read"), std::string::npos);
  // Nothing was armed along the way.
  EXPECT_FALSE(fault::armed());
}

TEST(Fault, ArmFromEnvironmentParsesCommaSeparatedSpecs) {
  FaultGuard guard;
  ::setenv("LRSIZER_FAULT", "cache.read:nth=2,json.parse:always", 1);
  std::string error;
  EXPECT_EQ(fault::arm_from_env(&error), 2);
  EXPECT_TRUE(error.empty()) << error;
  const auto points = fault::armed_points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], "cache.read");
  EXPECT_EQ(points[1], "json.parse");

  ::setenv("LRSIZER_FAULT", "cache.read:nope", 1);
  EXPECT_EQ(fault::arm_from_env(&error), -1);
  EXPECT_FALSE(error.empty());

  ::unsetenv("LRSIZER_FAULT");
  EXPECT_EQ(fault::arm_from_env(&error), 0);
}

// ---- disk-cache integrity ---------------------------------------------------

/// Fresh scratch directory per test (removed on destruction).
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("lrsizer_robust_" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
};

runtime::CachedEntry make_entry(const std::string& marker) {
  runtime::CachedEntry entry;
  entry.job = Json::object();
  entry.job.set("name", marker);
  entry.sizes = {{7, 1.25}, {8, 2.5}};
  return entry;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

TEST(CacheIntegrity, ChecksummedEntriesRoundTripAndChecksumlessFilesAreQuarantined) {
  FaultGuard guard;
  ScratchDir dir("roundtrip");
  const std::string key = "nA-eB-o1";
  {
    runtime::ResultCache cache(dir.path.string());
    cache.store(key, make_entry("keep"));
  }
  const auto file = dir.path / (key + ".json");
  ASSERT_TRUE(std::filesystem::exists(file));
  const std::string text = read_file(file);
  EXPECT_NE(text.find("\"checksum\""), std::string::npos);
  {
    runtime::ResultCache cache(dir.path.string());
    const auto hit = cache.lookup(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->job.at("name").as_string(), "keep");
    EXPECT_EQ(cache.stats().corrupt, 0u);
  }

  // The checksum is mandatory: a file with the field stripped wholesale is
  // unverifiable, so it is quarantined like any other corrupt file rather
  // than served (a client-named eco_base could otherwise seed from it).
  const std::size_t line_at = text.find("  \"checksum\"");
  ASSERT_NE(line_at, std::string::npos);
  const std::size_t line_end = text.find('\n', line_at);
  std::string stripped = text;
  stripped.erase(line_at, line_end - line_at + 1);
  write_file(file, stripped);
  runtime::ResultCache cache(dir.path.string());
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_TRUE(std::filesystem::exists(dir.path / (key + ".corrupt")));
}

TEST(CacheIntegrity, BitRotFailsTheChecksumAndQuarantinesTheFile) {
  FaultGuard guard;
  ScratchDir dir("bitrot");
  const std::string key = "nA-eB-o1";
  {
    runtime::ResultCache cache(dir.path.string());
    cache.store(key, make_entry("truth"));
  }
  // One flipped byte inside the payload: still valid JSON, wrong content —
  // exactly what schema validation alone cannot catch.
  const auto file = dir.path / (key + ".json");
  std::string text = read_file(file);
  const std::size_t at = text.find("truth");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'x';
  write_file(file, text);

  runtime::ResultCache cache(dir.path.string());
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_TRUE(std::filesystem::exists(dir.path / (key + ".corrupt")));
  // The quarantined file is out of the way: a repeat lookup is a plain
  // miss, not a second quarantine.
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // And a re-store simply writes a fresh good entry alongside the corpse.
  cache.store(key, make_entry("fresh"));
  runtime::ResultCache reopened(dir.path.string());
  ASSERT_NE(reopened.lookup(key), nullptr);
  EXPECT_TRUE(std::filesystem::exists(dir.path / (key + ".corrupt")));
}

TEST(CacheIntegrity, TornRenameIsQuarantinedOnTheNextRead) {
  FaultGuard guard;
  ScratchDir dir("torn");
  const std::string key = "nA-eB-o1";
  ASSERT_TRUE(fault::arm("cache.rename:always"));
  {
    runtime::ResultCache cache(dir.path.string());
    cache.store(key, make_entry("torn"));  // final file lands half-written
  }
  fault::reset();
  const auto file = dir.path / (key + ".json");
  ASSERT_TRUE(std::filesystem::exists(file));

  runtime::ResultCache cache(dir.path.string());
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_TRUE(std::filesystem::exists(dir.path / (key + ".corrupt")));
}

TEST(CacheIntegrity, WriteFailureSkipsPersistenceWithoutFailingTheStore) {
  FaultGuard guard;
  ScratchDir dir("enospc");
  const std::string key = "nA-eB-o1";
  ASSERT_TRUE(fault::arm("cache.write:always"));
  runtime::ResultCache cache(dir.path.string());
  cache.store(key, make_entry("lost"));  // disk full: entry not persisted
  fault::reset();
  // The in-memory copy still serves this process...
  ASSERT_NE(cache.lookup(key), nullptr);
  // ...but nothing (whole or torn) reached the directory.
  EXPECT_FALSE(std::filesystem::exists(dir.path / (key + ".json")));
  // A restart sees a plain miss, never a truncated entry.
  runtime::ResultCache restarted(dir.path.string());
  EXPECT_EQ(restarted.lookup(key), nullptr);
  EXPECT_EQ(restarted.stats().corrupt, 0u);
}

TEST(CacheIntegrity, TruncatedReadIsQuarantined) {
  FaultGuard guard;
  ScratchDir dir("shortread");
  const std::string key = "nA-eB-o1";
  {
    runtime::ResultCache cache(dir.path.string());
    cache.store(key, make_entry("whole"));
  }
  ASSERT_TRUE(fault::arm("cache.read:always"));
  runtime::ResultCache cache(dir.path.string());
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_TRUE(std::filesystem::exists(dir.path / (key + ".corrupt")));
}

// ---- server under injected faults -------------------------------------------

/// Thread-safe response collector (the test-side Sink), as in test_serve.
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
};

std::string size_request(const std::string& id, const std::string& profile) {
  return R"({"type":"size","id":")" + id + R"(","input":{"profile":")" +
         profile + R"("},"options":{"vectors":8}})";
}

TEST(RobustServe, AllocationFailureFailsTheJobNotTheServer) {
  FaultGuard guard;
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  // The first elaboration throws bad_alloc (the big-allocation site a
  // 10^6-node job would really hit); the job fails cleanly...
  ASSERT_TRUE(fault::arm("session.alloc:nth=1"));
  ASSERT_TRUE(server.handle_line(client, size_request("oom", "c17")));
  server.drain();
  const auto errors = collector.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("id").as_string(), "oom");
  EXPECT_EQ(errors[0].at("code").as_string(), "failed");
  EXPECT_NE(errors[0].at("message").as_string().find("alloc"),
            std::string::npos);
  // ...and the server keeps serving.
  ASSERT_TRUE(server.handle_line(client, size_request("next", "c17")));
  server.drain();
  const auto results = collector.of_type("result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("id").as_string(), "next");
  EXPECT_EQ(server.stats_snapshot().errors, 1u);
}

TEST(RobustServe, InjectedParseFailureEchoesTheRequestId) {
  FaultGuard guard;
  Collector collector;
  serve::ServerOptions options;
  options.jobs = 1;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  ASSERT_TRUE(fault::arm("json.parse:always"));
  ASSERT_TRUE(server.handle_line(client, size_request("p1", "c17")));
  fault::reset();
  const auto errors = collector.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("code").as_string(), "parse");
  // The point sits after id extraction, so chaos clients can match the
  // injected error back to their request and retry it.
  EXPECT_EQ(errors[0].at("id").as_string(), "p1");
  ASSERT_TRUE(server.handle_line(client, size_request("p2", "c17")));
  server.drain();
  ASSERT_EQ(collector.of_type("result").size(), 1u);
}

TEST(RobustServe, PersistFailureStillAnswersTheJob) {
  FaultGuard guard;
  ScratchDir dir("serve_enospc");
  Collector collector;
  runtime::ResultCache cache(dir.path.string());
  serve::ServerOptions options;
  options.jobs = 1;
  options.cache = &cache;
  serve::Server server(options);
  const auto client = server.add_client(collector.sink());
  server.hello(client);
  // The disk fills up exactly when the result would persist: the client
  // still gets its result; only the cross-process cache entry is lost.
  ASSERT_TRUE(fault::arm("cache.write:always"));
  ASSERT_TRUE(server.handle_line(client, size_request("a", "c17")));
  server.drain();
  fault::reset();
  const auto results = collector.of_type("result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("id").as_string(), "a");
  EXPECT_TRUE(collector.of_type("error").empty());
  EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

#if defined(__unix__) || defined(__APPLE__)

/// Minimal TCP harness (test_serve.cpp has the full-featured twin).
struct FaultTcpServer {
  serve::ServerOptions options;
  std::stop_source stop;
  std::unique_ptr<serve::Server> server;
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> done{false};
  std::thread thread;

  explicit FaultTcpServer(serve::ServerOptions opts)
      : options(std::move(opts)) {
    options.stop = stop.get_token();
    server = std::make_unique<serve::Server>(options);
    thread = std::thread([this] {
      serve::ListenOptions listen;
      listen.port = 0;
      listen.bound_port = &port;
      serve::listen_and_serve(listen, *server);
      done.store(true);
    });
    while (port.load() == 0 && !done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~FaultTcpServer() {
    stop.request_stop();
    thread.join();
  }
};

struct FaultTcpClient {
  int fd = -1;
  std::string buffer;

  explicit FaultTcpClient(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    timeval timeout{60, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~FaultTcpClient() {
    if (fd >= 0) ::close(fd);
  }
  FaultTcpClient(const FaultTcpClient&) = delete;
  FaultTcpClient& operator=(const FaultTcpClient&) = delete;

  bool ok() const { return fd >= 0; }

  void send_line(const std::string& line) {
    const std::string bytes = line + "\n";
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

  std::optional<Json> read_until(const std::string& type) {
    for (;;) {
      const auto line = read_line();
      if (!line) return std::nullopt;
      Json j = Json::parse(*line);
      if (j.at("type").as_string() == type) return j;
    }
  }
};

TEST(RobustServe, SocketWriteFailureReapsTheClientAndTheServerSurvives) {
  FaultGuard guard;
  serve::ServerOptions options;
  options.jobs = 1;
  FaultTcpServer ts(options);
  ASSERT_NE(ts.port.load(), 0);

  FaultTcpClient doomed(ts.port.load());
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(doomed.read_until("hello").has_value());
  // From here every socket write "fails" — as if the peer's half of the
  // connection died. The accepted response for the next request hits the
  // fault, the sink marks the connection broken, and the event loop reaps
  // it exactly like a disconnect.
  ASSERT_TRUE(fault::arm("socket.write:always"));
  doomed.send_line(size_request("x", "c17"));
  EXPECT_FALSE(doomed.read_line().has_value());  // EOF: reaped, not hung
  fault::reset();

  // The server itself shrugged it off: a new client full-round-trips.
  FaultTcpClient survivor(ts.port.load());
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(survivor.read_until("hello").has_value());
  survivor.send_line(size_request("y", "c17"));
  const auto result = survivor.read_until("result");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->at("id").as_string(), "y");
}

#endif  // sockets

}  // namespace
