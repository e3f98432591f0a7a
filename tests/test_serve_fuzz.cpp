// Protocol fuzz battery for the serve stack: seeded random malformed,
// truncated, and adversarial jsonl lines through Server::handle_line (and,
// on POSIX, raw TCP garbage through the event loop). The contract under
// attack: every response the server emits is well-formed jsonl of a known
// type, malformed input yields exactly `error` responses, and the process
// never crashes, leaks, or stalls. CI runs this binary under ASan/UBSan;
// the generators are fully seeded (std::mt19937_64 with fixed seeds) so a
// failure reproduces deterministically.
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
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/json.hpp"
#include "serve/listen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace lrsizer {
namespace {

using runtime::Json;

/// The complete response vocabulary of lrsizer-serve-v3. Anything else
/// coming out of the server under fuzzing is a bug.
bool known_response_type(const std::string& type) {
  return type == "hello" || type == "accepted" || type == "progress" ||
         type == "result" || type == "cancelled" || type == "stats" ||
         type == "error";
}

/// A server wired to a collecting sink that *validates while collecting*:
/// every emitted line must parse as JSON with a known "type". Violations
/// are counted rather than asserted inline (sinks run on pool threads).
struct FuzzHarness {
  serve::Server server{make_options()};
  serve::Server::ClientId client = 0;
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> malformed{0};
  std::mutex mutex;
  std::vector<Json> terminals;  ///< every well-formed result and error
  std::vector<std::string> accepted;  ///< the id of every `accepted` line

  FuzzHarness() {
    client = server.add_client([this](const std::string& line) {
      ++responses;
      try {
        Json j = Json::parse(line);
        if (!j.is_object() || j.find("type") == nullptr ||
            !j.at("type").is_string() ||
            !known_response_type(j.at("type").as_string())) {
          ++malformed;
          return;
        }
        const std::string& type = j.at("type").as_string();
        if (type == "result" || type == "error") {
          const std::lock_guard<std::mutex> lock(mutex);
          terminals.push_back(std::move(j));
        } else if (type == "accepted") {
          const std::lock_guard<std::mutex> lock(mutex);
          accepted.push_back(j.at("id").as_string());
        }
      } catch (const std::exception&) {
        ++malformed;
      }
    });
  }

  static serve::ServerOptions make_options() {
    serve::ServerOptions options;
    options.jobs = 1;
    options.version = "fuzz";
    return options;
  }

  /// Feed one line; handle_line returning false (shutdown) is fine, the
  /// harness just keeps feeding a fresh logical stream.
  void feed(const std::string& line) {
    (void)server.handle_line(client, line);
  }

  void finish() {
    server.drain();
    EXPECT_EQ(malformed.load(), 0u)
        << malformed.load() << " of " << responses.load()
        << " responses were not well-formed known-type jsonl";
  }
};

/// A valid request corpus to mutate: one of each request kind, plus a size
/// request with nested options (richer structure for bit-flips to corrupt).
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kCorpus = {
      R"({"type":"size","id":"a","input":{"profile":"c17"},"options":{"vectors":8}})",
      R"({"type":"size","id":"b","seed":3,"input":{"profile":"c17"},"options":{"vectors":8,"max_iterations":5}})",
      R"({"type":"cancel","id":"a"})",
      R"({"type":"stats","id":"s"})",
      R"({"type":"stats"})",
  };
  return kCorpus;
}

// ---- Json parser hardening --------------------------------------------------

TEST(ServeFuzzJson, DeepNestingIsRejectedNotAStackOverflow) {
  // 100k opening brackets: without the parser's depth cap this recursion
  // would blow the stack long before ASan could say anything useful.
  const std::string deep_array(100000, '[');
  EXPECT_THROW((void)Json::parse(deep_array), std::exception);
  std::string deep_object;
  for (int i = 0; i < 100000; ++i) deep_object += "{\"k\":";
  EXPECT_THROW((void)Json::parse(deep_object), std::exception);
  // At a depth comfortably under the cap, nesting still parses.
  std::string shallow = "1";
  for (int i = 0; i < 64; ++i) shallow = "[" + shallow + "]";
  EXPECT_NO_THROW((void)Json::parse(shallow));
}

TEST(ServeFuzzJson, RandomBytesEitherParseOrThrowCleanly) {
  std::mt19937_64 rng(0xf00dULL);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> length(0, 256);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string text(length(rng), '\0');
    for (char& c : text) c = static_cast<char>(byte(rng));
    try {
      const Json j = Json::parse(text);
      (void)j.dump();  // whatever parsed must re-serialize
    } catch (const std::exception&) {
      // A clean throw is the expected outcome for garbage.
    }
  }
}

TEST(ServeFuzzJson, DumpEscapesControlCharactersRoundTrip) {
  // Strings containing every byte 0..255 must survive dump -> parse.
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) all_bytes.push_back(static_cast<char>(c));
  Json j = Json::object();
  j.set("k", all_bytes);
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.at("k").as_string(), all_bytes);
}

// ---- handle_line fuzzing ----------------------------------------------------

TEST(ServeFuzz, BitFlippedRequestsOnlyEverYieldErrorsOrValidResponses) {
  FuzzHarness harness;
  std::mt19937_64 rng(1ULL);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int iteration = 0; iteration < 1500; ++iteration) {
    std::string line = corpus()[iteration % corpus().size()];
    // 1-3 random bit flips anywhere in the line.
    std::uniform_int_distribution<std::size_t> pos(0, line.size() - 1);
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      line[pos(rng)] ^= static_cast<char>(1 << bit(rng));
    }
    harness.feed(line);
  }
  harness.finish();
}

TEST(ServeFuzz, TruncatedRequestsOnlyEverYieldErrorsOrValidResponses) {
  FuzzHarness harness;
  std::mt19937_64 rng(2ULL);
  for (int iteration = 0; iteration < 1000; ++iteration) {
    const std::string& whole = corpus()[iteration % corpus().size()];
    std::uniform_int_distribution<std::size_t> cut(0, whole.size() - 1);
    harness.feed(whole.substr(0, cut(rng)));
  }
  harness.finish();
}

TEST(ServeFuzz, AdversarialPayloadsNeverCrashTheServer) {
  FuzzHarness harness;
  // Hand-picked nasties: wrong types everywhere, huge and non-finite
  // numbers, invalid UTF-8 in strings, control characters, unterminated
  // strings, absurd seeds, unknown profiles, deep nesting inside a request.
  const std::vector<std::string> nasties = {
      "",
      "   \t  ",
      "null",
      "true",
      "42",
      "\"just a string\"",
      "[]",
      "{}",
      R"({"type":null})",
      R"({"type":42})",
      R"({"type":"size"})",
      R"({"type":"size","id":7,"input":{"profile":"c17"}})",
      R"({"type":"size","id":"","input":{"profile":"c17"}})",
      R"({"type":"size","id":"x","input":{}})",
      R"({"type":"size","id":"x","input":{"profile":"c9999"}})",
      R"({"type":"size","id":"x","input":{"profile":"c17","bench":"x"}})",
      R"({"type":"size","id":"x","input":{"bench":"INPUT(}garbage{"}})",
      R"({"type":"size","id":"x","seed":-1,"input":{"profile":"c17"}})",
      R"({"type":"size","id":"x","seed":1e308,"input":{"profile":"c17"}})",
      R"({"type":"size","id":"x","seed":0.5,"input":{"profile":"c17"}})",
      R"({"type":"size","id":"x","input":{"profile":"c17"},"options":{"vectors":-8}})",
      R"({"type":"size","id":"x","input":{"profile":"c17"},"options":{"vectors":1e999}})",
      R"({"type":"size","id":"x","input":{"profile":"c17"},"options":42})",
      R"({"type":"cancel"})",
      R"({"type":"cancel","id":""})",
      R"({"type":"stats","id":7})",
      R"({"type":"bogus","id":"x"})",
      // Raw control characters inside strings are strict-JSON violations
      // and the parser rejects them (embedded NUL included).
      "{\"type\":\"stats\",\"id\":\"\x01\x02\x03\"}",
      std::string("{\"type\":\"size\",\"id\":\"a\0b\",\"input\":"
                  "{\"profile\":\"c17\"},\"options\":{\"vectors\":8}}",
                  76),
      R"({"type":"size","id":"x","input":)" + std::string(500, '[') + "}",
      "{\"unterminated\":\"",
      std::string(4096, '{'),
  };
  // Bench text that once reached a LogicNetlist assertion and aborted the
  // whole server: a two-input NOT/BUFF, and signals nothing reads.
  const std::vector<std::string> bench_witnesses = {
      R"(INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n)",
      R"(INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = BUFF(a, b)\n)",
      R"(INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\n)",
      R"(INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\nz = AND(a, b)\n)",
      R"(INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a)\n)",
  };
  for (const std::string& line : nasties) harness.feed(line);
  for (std::size_t i = 0; i < bench_witnesses.size(); ++i) {
    harness.feed(R"({"type":"size","id":"w)" + std::to_string(i) +
                 R"(","input":{"bench":")" + bench_witnesses[i] + R"("}})");
  }
  harness.server.drain();
  // Every line above was rejected: nothing may have been accepted or run.
  EXPECT_EQ(harness.server.stats_snapshot().accepted, 0u);
  for (std::size_t i = 0; i < bench_witnesses.size(); ++i) {
    const std::string id = "w" + std::to_string(i);
    const std::lock_guard<std::mutex> lock(harness.mutex);
    const auto answer =
        std::find_if(harness.terminals.begin(), harness.terminals.end(),
                     [&](const Json& j) {
                       return j.find("id") != nullptr && j.at("id").is_string() &&
                              j.at("id").as_string() == id;
                     });
    ASSERT_NE(answer, harness.terminals.end()) << id;
    EXPECT_EQ(answer->at("type").as_string(), "error") << id;
    EXPECT_EQ(answer->at("code").as_string(), "parse") << id;
  }
  // Ids are opaque byte strings to the protocol: invalid UTF-8 is not
  // malformed, just ugly. This must be *accepted*, run to completion, and
  // still produce well-formed responses (the sink validation) rather than
  // corrupting the output stream.
  harness.feed(
      "{\"type\":\"size\",\"id\":\"\xff\xfe\x80\",\"input\":{\"profile\":"
      "\"c17\"},\"options\":{\"vectors\":8}}");
  harness.finish();
  EXPECT_EQ(harness.server.stats_snapshot().accepted, 1u);
  EXPECT_EQ(harness.server.stats_snapshot().completed, 1u);
}

TEST(ServeFuzz, RandomStructuredRequestsKeepTheServerResponsive) {
  // Mutate at the token level (not bits): random type, ids with hostile
  // characters, random seeds and option values. Interleave a known-good
  // request periodically — the server must keep answering it correctly
  // no matter what came before.
  FuzzHarness harness;
  std::mt19937_64 rng(3ULL);
  const std::vector<std::string> types = {"size", "cancel", "stats",
                                          "bogus", "", "SIZE"};
  const std::vector<std::string> ids = {"a",      "",     "a b",
                                        "\\\"x\\\"", "\xc3\x28", "j"};
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::string line = "{\"type\":\"" + types[rng() % types.size()] +
                       "\",\"id\":\"" + ids[rng() % ids.size()] + "\"";
    if (rng() % 2) line += ",\"seed\":" + std::to_string(rng());
    if (rng() % 2) {
      line += ",\"input\":{\"profile\":\"c17\"}";
    }
    if (rng() % 3 == 0) {
      line += ",\"options\":{\"vectors\":" +
              std::to_string(static_cast<int>(rng() % 2000) - 1000) + "}";
    }
    line += "}";
    harness.feed(line);
  }
  harness.server.drain();
  // The canary: after 400 rounds of abuse, a well-formed request still
  // produces a result.
  harness.feed(
      R"({"type":"size","id":"canary","input":{"profile":"c17"},"options":{"vectors":8}})");
  harness.finish();
  EXPECT_GE(harness.server.stats_snapshot().completed, 1u);
}

// ---- Option values ----------------------------------------------------------

/// Request option -> the FlowOptions field its validation error names.
const std::vector<std::pair<std::string, std::string>>& bound_options() {
  static const std::vector<std::pair<std::string, std::string>> kOptions = {
      {"delay_bound", "bound_factors.delay"},
      {"power_bound", "bound_factors.power"},
      {"noise_bound", "bound_factors.noise"},
      {"per_net_noise_bound", "bound_factors.per_net_noise"},
  };
  return kOptions;
}

std::string bound_request(const std::string& id, const std::string& profile,
                          const std::string& option, const std::string& value,
                          int max_iterations) {
  return R"({"type":"size","id":")" + id + R"(","input":{"profile":")" + profile +
         R"("},"options":{")" + option + "\":" + value +
         R"(,"max_iterations":)" + std::to_string(max_iterations) +
         R"(},"report":{"sizes":false}})";
}

/// Drains the server and checks that each of the fed `requests` (id -> the
/// field its error must name) answered exactly one terminal: a result with a
/// finite dual (a non-finite one serializes as null) or an error whose
/// message names its field. Then the same server must still size c17.
void expect_finite_or_field_error(
    FuzzHarness& harness, const std::map<std::string, std::string>& requests) {
  harness.server.drain();
  std::map<std::string, int> answered;
  {
    const std::lock_guard<std::mutex> lock(harness.mutex);
    for (const Json& terminal : harness.terminals) {
      const std::string& id = terminal.at("id").as_string();
      const auto request = requests.find(id);
      ASSERT_NE(request, requests.end()) << terminal.dump();
      ++answered[id];
      if (terminal.at("type").as_string() == "error") {
        EXPECT_NE(terminal.at("message").as_string().find(request->second),
                  std::string::npos)
            << terminal.dump();
      } else {
        const Json& dual = terminal.at("job").at("dual");
        EXPECT_TRUE(dual.is_number() && std::isfinite(dual.as_number()))
            << terminal.dump();
      }
    }
    harness.terminals.clear();
  }
  EXPECT_EQ(answered.size(), requests.size());
  for (const auto& [id, count] : answered) EXPECT_EQ(count, 1) << id;

  harness.feed(
      R"({"type":"size","id":"canary","input":{"profile":"c17"},"report":{"sizes":false}})");
  harness.finish();
  const std::lock_guard<std::mutex> lock(harness.mutex);
  ASSERT_EQ(harness.terminals.size(), 1u);
  EXPECT_EQ(harness.terminals[0].at("type").as_string(), "result");
  EXPECT_TRUE(std::isfinite(harness.terminals[0].at("job").at("dual").as_number()));
}

TEST(ServeFuzzOptions, BoundFactorsBelowTheFloorAnswerAFieldNamingError) {
  // Factors this small used to overflow OGWS's normalization scales: the
  // server aborted on an LRS assert or answered a null dual.
  FuzzHarness harness;
  std::map<std::string, std::string> requests;
  for (const auto& [option, field] : bound_options()) {
    for (const char* value : {"1e-300", "1e-295"}) {
      const std::string id = option + "=" + value;
      harness.feed(bound_request(id, "c17", option, value, 500));
      requests.emplace(id, field);
    }
  }
  harness.server.drain();
  {
    const std::lock_guard<std::mutex> lock(harness.mutex);
    EXPECT_EQ(harness.terminals.size(), requests.size());
    for (const Json& terminal : harness.terminals) {
      EXPECT_EQ(terminal.at("type").as_string(), "error") << terminal.dump();
    }
  }
  EXPECT_EQ(harness.server.stats_snapshot().accepted, 0u);
  expect_finite_or_field_error(harness, requests);
}

TEST(ServeFuzzOptions, VectorCountsPastTheRowBudgetAnswerAFieldNamingError) {
  // Stage 1 allocates in proportion to "vectors": the int32 edge would ask
  // for ~190 GB of simulation rows on c17 (and ~120 GB of vectors before
  // them). Like every other option error it is refused at admission, as a
  // `parse` error naming the field with no `accepted` line before it, and
  // the same server then sizes c17.
  FuzzHarness harness;
  harness.feed(
      R"({"type":"size","id":"huge","input":{"profile":"c17"},)"
      R"("options":{"vectors":2147483647},"report":{"sizes":false}})");
  harness.server.drain();
  {
    const std::lock_guard<std::mutex> lock(harness.mutex);
    EXPECT_TRUE(harness.accepted.empty()) << harness.accepted.front();
    ASSERT_EQ(harness.terminals.size(), 1u);
    EXPECT_EQ(harness.terminals[0].at("type").as_string(), "error");
    EXPECT_EQ(harness.terminals[0].at("code").as_string(), "parse")
        << harness.terminals[0].dump();
  }
  expect_finite_or_field_error(harness, {{"huge", "num_vectors"}});
}

TEST(ServeFuzzOptions, BoundFactorGridAnswersAFiniteDualOrAFieldNamingError) {
  // Every bound factor from the representable edge to a loose bound, at a
  // short and a long iteration cap, on c17 and c432. An unreachable bound
  // must end at the weak-duality stop with a finite dual, not run its
  // multipliers into overflow (a null dual, or an abort that takes the
  // whole server down).
  FuzzHarness harness;
  std::map<std::string, std::string> requests;
  const std::vector<std::string> values = {"1e-300", "1e-200", "1e-100",
                                           "1e-30",  "1e-3",   "0.01",
                                           "0.1",    "0.5",    "0.8"};
  for (const char* profile : {"c17", "c432"}) {
    for (const auto& [option, field] : bound_options()) {
      for (const std::string& value : values) {
        for (int max_iterations : {500, 2000}) {
          const std::string id = std::string(profile) + "/" + option + "=" + value +
                                 "/" + std::to_string(max_iterations);
          harness.feed(bound_request(id, profile, option, value, max_iterations));
          requests.emplace(id, field);
        }
      }
    }
  }
  // The tail between 1e-293 and 1e-305, where the weak-duality stop alone
  // still aborted.
  for (const auto& [option, field] : bound_options()) {
    for (int exponent = 293; exponent <= 305; ++exponent) {
      const std::string value = "1e-" + std::to_string(exponent);
      const std::string id = "c17/" + option + "=" + value;
      harness.feed(bound_request(id, "c17", option, value, 500));
      requests.emplace(id, field);
    }
  }
  expect_finite_or_field_error(harness, requests);
}

// ---- TCP front-end fuzzing --------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

void send_all(int fd, const std::string& bytes) {
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

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Read until `marker` appears in the stream or EOF/timeout.
bool read_until_marker(int fd, const std::string& marker) {
  std::string seen;
  char chunk[4096];
  while (seen.find(marker) == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    seen.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

TEST(ServeFuzzTcp, RandomGarbageStreamsNeverKillTheEventLoop) {
  serve::ServerOptions options;
  options.jobs = 1;
  options.max_line_bytes = 4096;  // small cap: the flood trips it quickly
  options.version = "fuzz";
  std::stop_source stop;
  options.stop = stop.get_token();
  serve::Server server(options);
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> done{false};
  std::thread loop([&] {
    serve::ListenOptions listen;
    listen.bound_port = &port;
    serve::listen_and_serve(listen, server);
    done.store(true);
  });
  while (port.load() == 0 && !done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(port.load(), 0);

  std::mt19937_64 rng(4ULL);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 8; ++round) {
    const int fd = connect_loopback(port.load());
    ASSERT_GE(fd, 0);
    switch (round % 4) {
      case 0: {  // pure binary garbage, newline-sprinkled
        std::string garbage(2048, '\0');
        for (char& c : garbage) c = static_cast<char>(byte(rng));
        for (std::size_t i = 64; i < garbage.size(); i += 128) {
          garbage[i] = '\n';
        }
        send_all(fd, garbage);
        break;
      }
      case 1:  // an endless line (no newline) — oversized-line path
        send_all(fd, std::string(32768, 'A'));
        break;
      case 2:  // half a request, then abrupt disconnect
        send_all(fd, R"({"type":"size","id":"half","inp)");
        break;
      case 3:  // interleaved garbage and valid request on one connection
        send_all(fd, "\x00\xff\xfe not json \n");
        send_all(fd,
                 "{\"type\":\"size\",\"id\":\"ok\",\"input\":{\"profile\":"
                 "\"c17\"},\"options\":{\"vectors\":8}}\n");
        EXPECT_TRUE(read_until_marker(fd, "\"result\""))
            << "valid request after garbage got no result (round " << round
            << ")";
        break;
    }
    ::close(fd);
  }

  // The loop survived it all: a fresh client still gets hello + stats.
  const int fd = connect_loopback(port.load());
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(read_until_marker(fd, "\"hello\""));
  send_all(fd, "{\"type\":\"stats\"}\n");
  EXPECT_TRUE(read_until_marker(fd, "\"stats\""));
  ::close(fd);

  stop.request_stop();
  loop.join();
  EXPECT_TRUE(done.load());
}

TEST(ServeFuzzHttp, MalformedScrapesNeverWedgeTheMetricsPortOrJobLoop) {
  serve::ServerOptions options;
  options.jobs = 1;
  options.version = "fuzz";
  std::stop_source stop;
  options.stop = stop.get_token();
  serve::Server server(options);
  std::atomic<std::uint16_t> port{0};
  std::atomic<std::uint16_t> metrics_port{0};
  std::atomic<bool> done{false};
  std::thread loop([&] {
    serve::ListenOptions listen;
    listen.port = 0;
    listen.metrics_port = 0;
    listen.bound_port = &port;
    listen.metrics_bound_port = &metrics_port;
    serve::listen_and_serve(listen, server);
    done.store(true);
  });
  while ((port.load() == 0 || metrics_port.load() == 0) && !done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(port.load(), 0);
  ASSERT_NE(metrics_port.load(), 0);

  /// Send raw bytes to the metrics port, read to EOF, return the response
  /// (empty when the peer just closes — the slowloris outcome).
  auto http_raw = [&](const std::string& bytes) {
    const int fd = connect_loopback(metrics_port.load());
    EXPECT_GE(fd, 0);
    if (fd < 0) return std::string();
    send_all(fd, bytes);
    std::string response;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };
  auto status_of = [](const std::string& response) {
    if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return 0;
    return std::atoi(response.c_str() + 9);
  };

  // Each malformation answered (or just closed), none fatal to the loop.
  EXPECT_EQ(status_of(http_raw("GET /" + std::string(9000, 'a') +
                               " HTTP/1.1\r\n\r\n")),
            400);  // oversized request line blows the 8 KiB cap
  EXPECT_EQ(status_of(http_raw("GET /metrics HTTP/1.1\n\n")),
            400);  // bare LF line endings
  EXPECT_EQ(status_of(http_raw("G@T /metrics HTTP/1.1\r\n\r\n")),
            400);  // non-token method byte
  EXPECT_EQ(status_of(http_raw("GET /metrics\r\n\r\n")),
            400);  // missing HTTP version
  EXPECT_EQ(status_of(http_raw("BREW /metrics HTTP/1.1\r\n\r\n")),
            405);  // parses fine; routing only answers GET
  std::mt19937_64 rng(5ULL);
  for (int round = 0; round < 4; ++round) {
    std::string garbage(1024, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    (void)http_raw(garbage);  // any status (or close) is fine; no crash
  }
  {
    // Slowloris: a header dribble that never completes, then EOF. The
    // parser is mid-request; the loop must just close and move on.
    const int fd = connect_loopback(metrics_port.load());
    ASSERT_GE(fd, 0);
    send_all(fd, "GET /metrics HTTP/1.1\r\nX-Slow: ");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  }
  {
    // A half-open scrape held idle while the jsonl side works (below):
    // one stuck connection must not block the shared poll loop.
    const int fd = connect_loopback(metrics_port.load());
    ASSERT_GE(fd, 0);
    send_all(fd, "GET /metr");

    // The jsonl job loop never noticed any of it.
    const int job = connect_loopback(port.load());
    ASSERT_GE(job, 0);
    EXPECT_TRUE(read_until_marker(job, "\"hello\""));
    send_all(job,
             "{\"type\":\"size\",\"id\":\"ok\",\"input\":{\"profile\":"
             "\"c17\"},\"options\":{\"vectors\":8}}\n");
    EXPECT_TRUE(read_until_marker(job, "\"result\""));
    ::close(job);
    ::close(fd);
  }

  // And a well-formed scrape still answers with the accepted job counted.
  const std::string scrape = http_raw("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(scrape), 200);
  EXPECT_NE(scrape.find("lrsizer_serve_accepted_total 1"), std::string::npos);
  const std::string health = http_raw("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(health), 200);

  stop.request_stop();
  loop.join();
  EXPECT_TRUE(done.load());
}

#endif  // sockets

}  // namespace
}  // namespace lrsizer
