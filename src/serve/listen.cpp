#include "serve/listen.hpp"

#include <cstdio>

#include "obs/http.hpp"
#include "obs/prometheus.hpp"
#include "util/logging.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define LRSIZER_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#endif

namespace lrsizer::serve {

#if defined(LRSIZER_HAVE_SOCKETS)

namespace {

/// Write `out` to `fd` whole, or report failure: EINTR is retried, any
/// other short write means the peer is gone — false tells the caller to
/// stop writing, and the event loop reaps the connection. Sockets take
/// send(MSG_NOSIGNAL) because a disconnected client must surface as a write
/// error, not a process-killing SIGPIPE — this is a long-lived server
/// (per-fd SO_NOSIGPIPE covers platforms without the flag). stdout is not a
/// socket and takes write(2).
bool write_all_fd(int fd, const std::string& out, bool socket = true) {
  if (socket && LRSIZER_FAULT_POINT("socket.write")) return false;
  std::size_t off = 0;
  while (off < out.size()) {
#if defined(MSG_NOSIGNAL)
    const ssize_t n =
        socket ? ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL)
               : ::write(fd, out.data() + off, out.size() - off);
#else
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
#endif
    if (n < 0 && errno == EINTR) continue;  // retry, or the line tears
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One connection in the event loop: the fd it reads, its Server client
/// handle, and the bytes received that do not yet form a complete line.
struct Conn {
  int fd = -1;
  Server::ClientId client = 0;  ///< jsonl connections only (0 = none)
  /// The stdin transport: reads fd 0, answers on fd 1, neither of which the
  /// loop owns; EOF ends the service instead of disconnecting the client.
  bool stdio = false;
  /// Set by the response sink (worker threads) when a write fails; the
  /// event loop reaps the connection on its next pass. shared_ptr because
  /// the sink closure outlives Conn vector reallocations.
  std::shared_ptr<std::atomic<bool>> broken;
  std::string buffer;
  /// An over-budget line was rejected; drop bytes until its newline.
  bool discarding = false;
  bool dead = false;
  /// Accepted on the metrics listener: bytes go through `parser` and the
  /// connection answers exactly one HTTP request (Connection: close).
  bool http = false;
  obs::HttpRequestParser parser;
};

/// Open a loopback TCP listener (`port` 0 = ephemeral). Returns the fd, or
/// -1 with the reason logged. `*actual` receives the bound port.
int open_listener(std::uint16_t port, const char* what, std::uint16_t* actual) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    util::log_error() << "serve: socket() for " << what << ": "
                      << std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 16) < 0) {
    util::log_error() << "serve: cannot listen (" << what << ") on 127.0.0.1:"
                      << port << ": " << std::strerror(errno);
    ::close(listener);
    return -1;
  }
  *actual = port;
  if (port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *actual = ntohs(bound.sin_port);
    }
  }
  return listener;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// Answer one complete HTTP request on a metrics connection and close it.
void respond_http(Conn& conn, Server& server) {
  const obs::HttpRequest& req = conn.parser.request();
  std::string response;
  if (req.method != "GET") {
    response = obs::http_response(405, reason_phrase(405),
                                  "text/plain; charset=utf-8",
                                  "method not allowed\n");
  } else if (req.target == "/metrics") {
    const std::string body =
        obs::render_prometheus(server.registry().snapshot());
    response = obs::http_response(
        200, reason_phrase(200), "text/plain; version=0.0.4; charset=utf-8",
        body);
  } else if (req.target == "/healthz") {
    // 200 while the event loop is alive and accepting work; 503 once a
    // drain begins so load balancers stop routing here while in-flight
    // jobs finish. Liveness, not a job-level health judgement.
    if (server.draining()) {
      response = obs::http_response(503, reason_phrase(503),
                                    "text/plain; charset=utf-8", "draining\n");
    } else {
      response = obs::http_response(200, reason_phrase(200),
                                    "text/plain; charset=utf-8", "ok\n");
    }
  } else {
    response = obs::http_response(404, reason_phrase(404),
                                  "text/plain; charset=utf-8", "not found\n");
  }
  write_all_fd(conn.fd, response);
  conn.dead = true;  // Connection: close
}

}  // namespace

int listen_and_serve(const ListenOptions& listen_options, Server& server) {
  const std::stop_token stop = server.options().stop;
  const std::size_t max_line = server.options().max_line_bytes;
  const std::string too_long =
      "request line exceeds " + std::to_string(max_line) + " bytes";
  const bool stdio = listen_options.port < 0;

  int listener = -1;
  std::uint16_t actual_port = 0;
  if (!stdio) {
    listener = open_listener(static_cast<std::uint16_t>(listen_options.port),
                             "jsonl", &actual_port);
    if (listener < 0) return 1;
  }
  int metrics_listener = -1;
  std::uint16_t metrics_port = 0;
  if (listen_options.metrics_port >= 0) {
    metrics_listener =
        open_listener(static_cast<std::uint16_t>(listen_options.metrics_port),
                      "metrics", &metrics_port);
    if (metrics_listener < 0) {
      if (listener >= 0) ::close(listener);
      return 1;
    }
  }
  if (listen_options.bound_port) listen_options.bound_port->store(actual_port);
  if (listen_options.metrics_bound_port) {
    listen_options.metrics_bound_port->store(metrics_port);
  }
  // Announced unconditionally (not through the leveled logger): tooling
  // that launches `serve --listen 0` parses these lines for the actual
  // ports.
  if (listener >= 0) {
    std::fprintf(stderr, "lrsizer serve: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(actual_port));
  }
  if (metrics_listener >= 0) {
    std::fprintf(stderr, "lrsizer serve: metrics on 127.0.0.1:%u\n",
                 static_cast<unsigned>(metrics_port));
  }
  std::fflush(stderr);

  std::vector<Conn> conns;
  // Attach a jsonl client that reads `fd` and answers on the same socket,
  // or on fd 1 for the stdin transport.
  const auto attach = [&server, &conns](int fd, bool from_stdin) {
    Conn conn;
    conn.fd = fd;
    conn.stdio = from_stdin;
    conn.broken = std::make_shared<std::atomic<bool>>(false);
    const int out = from_stdin ? 1 : fd;
    conn.client = server.add_client(
        [out, socket = !from_stdin, broken = conn.broken](const std::string& line) {
          // Once one write fails the peer is gone; swallow the rest of its
          // responses instead of hammering a dead fd.
          if (broken->load(std::memory_order_relaxed)) return;
          if (!write_all_fd(out, line + '\n', socket)) {
            broken->store(true, std::memory_order_relaxed);
          }
        });
    server.hello(conn.client);
    conns.push_back(std::move(conn));
  };
  if (stdio) attach(0, true);

  const int one = 1;
  // pfds layout: the jsonl listener, the metrics listener (fd -1, which
  // poll skips, when either is off), then one slot per connection.
  constexpr std::size_t kConnBase = 2;
  bool shutdown_requested = false;
  while (!shutdown_requested && !stop.stop_requested()) {
    // The 500 ms timeout bounds how long a stop request (Ctrl-C) or a drain
    // can go unnoticed while every fd is idle. A deduped follower's deadline
    // shortens it: the loop answers due followers on every wake and wakes by
    // the earliest deadline still pending.
    int timeout_ms = 500;
    if (const auto next = server.expire_followers();
        next != std::chrono::steady_clock::time_point::max()) {
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
          next - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(wait.count(), 0, timeout_ms));
    }
    std::vector<pollfd> pfds;
    pfds.reserve(conns.size() + kConnBase);
    pfds.push_back({listener, POLLIN, 0});
    pfds.push_back({metrics_listener, POLLIN, 0});
    for (const Conn& conn : conns) pfds.push_back({conn.fd, POLLIN, 0});
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (stop.stop_requested()) break;
    // Graceful drain (SIGTERM): new jobs are already being refused with a
    // "shutdown" error by the Server; leave the loop once the last
    // in-flight job has flushed its terminal response. Until then keep
    // reading, so clients get those refusals and their responses, and
    // /metrics and /healthz keep answering (503) for the ops side.
    if (server.draining() && server.idle()) break;
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    // Serve existing clients before accepting new ones, so a full house
    // cannot starve connected clients of reads.
    for (std::size_t i = 0; i < conns.size() && !shutdown_requested; ++i) {
      Conn& conn = conns[i];
      const short revents = pfds[i + kConnBase].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) == 0) continue;
      if (conn.http) {
        // Metrics connection: feed the parser; answer (or reject) once it
        // settles. A peer that dribbles partial headers and stops
        // (slowloris) holds only its own fd + a capped parser buffer, and
        // EOF simply closes — the jsonl side never blocks on it.
        char chunk[4096];
        const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          conn.dead = true;
          continue;
        }
        switch (conn.parser.feed(chunk, static_cast<std::size_t>(n))) {
          case obs::HttpRequestParser::State::kIncomplete:
            break;
          case obs::HttpRequestParser::State::kComplete:
            respond_http(conn, server);
            break;
          case obs::HttpRequestParser::State::kBad: {
            const int status = conn.parser.error_status();
            write_all_fd(conn.fd,
                         obs::http_response(status, reason_phrase(status),
                                            "text/plain; charset=utf-8",
                                            conn.parser.error_reason() + "\n"));
            conn.dead = true;
            break;
          }
        }
        continue;
      }
      char chunk[65536];
      const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        // EOF (or error): a final unterminated line still counts.
        if (!conn.buffer.empty() && !conn.discarding) {
          if (!server.handle_line(conn.client, conn.buffer)) {
            shutdown_requested = true;
          }
        }
        // A TCP peer that hangs up is gone, and so are its jobs. The end of
        // stdin instead ends the service the way shutdown does: the client
        // stays attached, so every job it submitted still answers.
        if (conn.stdio) {
          shutdown_requested = true;
        } else {
          conn.dead = true;
        }
        continue;
      }
      // Bytes before this read hold no newline: the last pass consumed
      // every complete line.
      std::size_t scan = conn.buffer.size();
      conn.buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t newline = conn.buffer.find('\n', scan);
        if (newline == std::string::npos) break;
        const std::size_t begin = start;
        start = scan = newline + 1;
        if (conn.discarding) {
          // The tail of an already-rejected oversized line.
          conn.discarding = false;
          continue;
        }
        if (newline - begin > max_line) {
          server.reject(conn.client, too_long);
          continue;
        }
        std::string line = conn.buffer.substr(begin, newline - begin);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!server.handle_line(conn.client, line)) {
          shutdown_requested = true;
          break;
        }
      }
      conn.buffer.erase(0, start);
      if (conn.buffer.size() > max_line) {
        // Reject once, then drop bytes until the line finally ends —
        // bounding per-connection memory against a peer that never sends
        // a newline.
        if (!conn.discarding) {
          server.reject(conn.client, too_long);
          conn.discarding = true;
        }
        conn.buffer.clear();
      }
    }

    // Accept new connections.
    if (!shutdown_requested && (pfds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd >= 0) {
        if (server.draining()) {
          // New work is no longer welcome; close immediately rather than
          // greet a client whose every request would be refused. Metrics
          // connections (below) stay served throughout the drain.
          ::close(fd);
        } else {
#if defined(SO_NOSIGPIPE)
          // BSD/macOS counterpart of MSG_NOSIGNAL in write_all_fd.
          ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
          // Responses are small lines written back to back (accepted, then
          // result); with Nagle's algorithm on, the second waits for the
          // client's delayed ACK of the first — ~40 ms on every cache hit.
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          attach(fd, false);
        }
      }
    }
    if (!shutdown_requested && (pfds[1].revents & POLLIN) != 0) {
      const int fd = ::accept(metrics_listener, nullptr, nullptr);
      if (fd >= 0) {
#if defined(SO_NOSIGPIPE)
        ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
        Conn conn;
        conn.fd = fd;
        conn.http = true;  // no Server client: scrapes never enter the
                           // jsonl protocol or the job loop
        conns.push_back(std::move(conn));
      }
    }

    // Reap disconnected clients: cancel their jobs and drop their pending
    // responses before the fd closes, so no write ever hits a closed fd.
    // A failed response write (broken sink) is the same condition observed
    // from the other direction — reap those too; the server itself
    // survives the loss of any client. Nobody is left to serve once stdout
    // breaks.
    for (std::size_t i = 0; i < conns.size();) {
      if (conns[i].broken &&
          conns[i].broken->load(std::memory_order_relaxed)) {
        conns[i].dead = true;
      }
      if (!conns[i].dead) {
        ++i;
        continue;
      }
      if (conns[i].client != 0) server.remove_client(conns[i].client);
      if (conns[i].stdio) {
        shutdown_requested = true;
      } else {
        ::close(conns[i].fd);
      }
      conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  // Drain before detaching sinks: in-flight jobs (cancelled by the stop
  // token on Ctrl-C, or running to completion on shutdown and at the end
  // of stdin) flush their terminal responses to clients that are still
  // connected.
  server.drain();
  for (const Conn& conn : conns) {
    if (conn.client != 0) server.remove_client(conn.client);
    if (!conn.stdio) ::close(conn.fd);
  }
  if (listener >= 0) ::close(listener);
  if (metrics_listener >= 0) ::close(metrics_listener);
  return 0;
}

#else  // !LRSIZER_HAVE_SOCKETS

int listen_and_serve(const ListenOptions&, Server&) {
  util::log_error() << "serve: unavailable on this platform (no BSD sockets)";
  return 1;
}

#endif

}  // namespace lrsizer::serve
