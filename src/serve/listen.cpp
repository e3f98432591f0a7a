#include "serve/listen.hpp"

#include <cstdio>
#include <iostream>

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

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#endif

namespace lrsizer::serve {

#if defined(LRSIZER_HAVE_SOCKETS)

namespace {

/// Write one response line (plus newline) to a socket, whole or not at all
/// from the caller's perspective: EINTR is retried, any other short write
/// means the client is gone — false tells the caller to stop writing, and
/// the event loop reaps the connection. MSG_NOSIGNAL because a
/// disconnected client must surface as a write error, not a
/// process-killing SIGPIPE — this is a long-lived server (per-fd
/// SO_NOSIGPIPE covers platforms without the flag).
bool write_all_fd(int fd, const std::string& out) {
  if (LRSIZER_FAULT_POINT("socket.write")) return false;
  std::size_t off = 0;
  while (off < out.size()) {
#if defined(MSG_NOSIGNAL)
    const ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
#else
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
#endif
    if (n < 0 && errno == EINTR) continue;  // retry, or the line tears
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line_fd(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  return write_all_fd(fd, out);
}

/// Read lines from one connected fd (the stdin transport). Reads are
/// poll-gated so a stop request (Ctrl-C) is noticed within ~500 ms even
/// while the peer is idle.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF, error, or stop request; strips the trailing newline
  /// like std::getline.
  bool read_line(std::string& line, const std::stop_token& stop) {
    while (true) {
      const std::size_t newline = buffer_.find('\n', pos_);
      if (newline != std::string::npos) {
        line.assign(buffer_, pos_, newline - pos_);
        pos_ = newline + 1;
        return true;
      }
      buffer_.erase(0, pos_);
      pos_ = 0;
      if (!fill(stop)) {
        // EOF with a final unterminated line still hands it over.
        if (buffer_.empty()) return false;
        line = std::move(buffer_);
        buffer_.clear();
        return true;
      }
    }
  }

 private:
  /// Append at least one byte to the buffer; false on EOF/error/stop.
  bool fill(const std::stop_token& stop) {
    while (true) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 500);
      if (stop.stop_requested()) return false;
      if (ready < 0 && errno != EINTR) return false;
      if (ready <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }

  int fd_;
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// One accepted connection in the event loop: its fd, its Server client
/// handle, and the bytes received that do not yet form a complete line.
struct Conn {
  int fd = -1;
  Server::ClientId client = 0;  ///< jsonl connections only (0 = none)
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

bool listen_available() { return true; }

void serve_stdin(Server& server, const std::stop_token& stop) {
  server.hello();
  LineReader input(0);
  std::string line;
  while (!stop.stop_requested() && !server.draining() &&
         input.read_line(line, stop)) {
    if (!server.handle_line(line)) break;
  }
  server.drain();
}

int listen_and_serve(const ListenOptions& listen_options, Server& server) {
  const std::stop_token stop = server.options().stop;
  const std::size_t max_line = server.options().max_line_bytes;

  std::uint16_t actual_port = 0;
  const int listener = open_listener(listen_options.port, "jsonl", &actual_port);
  if (listener < 0) return 1;
  int metrics_listener = -1;
  std::uint16_t metrics_port = 0;
  if (listen_options.metrics_port >= 0) {
    metrics_listener =
        open_listener(static_cast<std::uint16_t>(listen_options.metrics_port),
                      "metrics", &metrics_port);
    if (metrics_listener < 0) {
      ::close(listener);
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
  std::fprintf(stderr, "lrsizer serve: listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(actual_port));
  if (metrics_listener >= 0) {
    std::fprintf(stderr, "lrsizer serve: metrics on 127.0.0.1:%u\n",
                 static_cast<unsigned>(metrics_port));
  }
  std::fflush(stderr);

  const int one = 1;
  // pfds layout: jsonl listener, then the metrics listener (when enabled),
  // then one slot per connection.
  const std::size_t conn_base = metrics_listener >= 0 ? 2 : 1;
  std::vector<Conn> conns;
  bool shutdown_requested = false;
  while (!shutdown_requested && !stop.stop_requested()) {
    // The 500 ms timeout bounds how long a stop request (Ctrl-C) can go
    // unnoticed while every fd is idle.
    std::vector<pollfd> pfds;
    pfds.reserve(conns.size() + conn_base);
    pfds.push_back({listener, POLLIN, 0});
    if (metrics_listener >= 0) pfds.push_back({metrics_listener, POLLIN, 0});
    for (const Conn& conn : conns) pfds.push_back({conn.fd, POLLIN, 0});
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 500);
    if (stop.stop_requested()) break;
    // Graceful drain (SIGTERM): new jobs are already being refused with a
    // "shutdown" error by the Server; leave the loop once the last
    // in-flight job has flushed its terminal response. Until then keep
    // polling so those responses reach their clients and /metrics and
    // /healthz keep answering (503) for the ops side.
    if (server.draining() && server.idle()) break;
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    // Serve existing clients before accepting new ones, so a full house
    // cannot starve connected clients of reads.
    for (std::size_t i = 0; i < conns.size() && !shutdown_requested; ++i) {
      Conn& conn = conns[i];
      const short revents = pfds[i + conn_base].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
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
        // EOF (or error): a final unterminated line still counts, matching
        // the stdin transport.
        if (!conn.buffer.empty() && !conn.discarding) {
          if (!server.handle_line(conn.client, conn.buffer)) {
            shutdown_requested = true;
          }
        }
        conn.dead = true;
        continue;
      }
      conn.buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t newline = conn.buffer.find('\n', start);
        if (newline == std::string::npos) break;
        std::string line = conn.buffer.substr(start, newline - start);
        start = newline + 1;
        if (conn.discarding) {
          // The tail of an already-rejected oversized line.
          conn.discarding = false;
          continue;
        }
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
          server.reject(conn.client,
                        "request line exceeds " + std::to_string(max_line) +
                            " bytes");
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
          // BSD/macOS counterpart of MSG_NOSIGNAL in write_line_fd.
          ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
          // Responses are small lines written back to back (accepted, then
          // result); with Nagle's algorithm on, the second waits for the
          // client's delayed ACK of the first — ~40 ms on every cache hit.
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          Conn conn;
          conn.fd = fd;
          conn.broken = std::make_shared<std::atomic<bool>>(false);
          const std::shared_ptr<std::atomic<bool>> broken = conn.broken;
          conn.client =
              server.add_client([fd, broken](const std::string& line) {
                // Once one write fails the peer is gone; swallow the rest
                // of its responses instead of hammering a dead socket.
                if (broken->load(std::memory_order_relaxed)) return;
                if (!write_line_fd(fd, line)) {
                  broken->store(true, std::memory_order_relaxed);
                }
              });
          server.hello(conn.client);
          conns.push_back(std::move(conn));
        }
      }
    }
    if (!shutdown_requested && metrics_listener >= 0 &&
        (pfds[1].revents & POLLIN) != 0) {
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
    // survives the loss of any client.
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
      ::close(conns[i].fd);
      conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  // Drain before detaching sinks: in-flight jobs (cancelled by the stop
  // token on Ctrl-C, or running to completion on client shutdown) flush
  // their terminal responses to clients that are still connected.
  server.drain();
  for (const Conn& conn : conns) {
    if (conn.client != 0) server.remove_client(conn.client);
    ::close(conn.fd);
  }
  ::close(listener);
  if (metrics_listener >= 0) ::close(metrics_listener);
  return 0;
}

#else  // !LRSIZER_HAVE_SOCKETS

bool listen_available() { return false; }

int listen_and_serve(const ListenOptions&, Server&) {
  util::log_error() << "serve: --listen is unavailable on this platform "
                       "(no BSD sockets); use stdin-jsonl mode";
  return 1;
}

void serve_stdin(Server& server, const std::stop_token&) {
  server.serve_stream(std::cin);
}

#endif

}  // namespace lrsizer::serve
