// TCP front-end for the serve loop (`lrsizer serve --listen <port>`).
//
// A single poll(2) event loop on 127.0.0.1:<port> fans any number of
// concurrent clients into one shared Server: per-connection line buffers on
// the read side, per-client serialized sinks on the write side (the Server
// guarantees whole-line writes per client). All clients share the server's
// ThreadPool, ResultCache, and backpressure budget; job ids are scoped per
// client. One client sending `shutdown` stops the whole service — it is an
// operator verb, not a disconnect (docs/SERVING.md §Transports).
//
// The loop itself is single-threaded: it only moves bytes and feeds
// complete lines to Server::handle_line; all sizing work happens on the
// pool. A connection that disconnects mid-job has its jobs cancelled and
// its remaining responses dropped (Server::remove_client).
//
// POSIX-only: on platforms without BSD sockets, listen_available() is false
// and listen_and_serve fails immediately.
#pragma once

#include <atomic>
#include <cstdint>

#include "serve/server.hpp"

namespace lrsizer::serve {

/// True when this build can open TCP listen sockets.
bool listen_available();

/// Front-end configuration for listen_and_serve.
struct ListenOptions {
  /// jsonl port on 127.0.0.1; 0 binds an ephemeral port.
  std::uint16_t port = 0;
  /// HTTP observability port on 127.0.0.1 (GET /metrics in Prometheus text
  /// format, GET /healthz), multiplexed into the same poll loop as the
  /// jsonl port. 0 binds an ephemeral port; -1 (default) disables the
  /// endpoint entirely.
  int metrics_port = -1;
  /// Actual bound ports, written once each socket is listening (for
  /// launch-tooling that passes port 0). May be null.
  std::atomic<std::uint16_t>* bound_port = nullptr;
  std::atomic<std::uint16_t>* metrics_bound_port = nullptr;
};

/// Serve `server` until `server.options().stop` is requested or a client
/// sends shutdown. Ports 0 bind ephemeral ports; the actual ports are
/// written to the ListenOptions out-pointers once each socket is listening
/// and always announced on stderr ("listening on 127.0.0.1:<port>" /
/// "metrics on 127.0.0.1:<port>"). Returns 0 on clean shutdown, 1 when a
/// socket could not be opened (the reason is logged). The caller owns the
/// Server and can read stats after return.
int listen_and_serve(const ListenOptions& options, Server& server);

/// The stdin counterpart of the TCP loop: hello + read request lines from
/// fd 0 + drain, with POSIX poll-gated reads so a stop request (Ctrl-C) is
/// noticed within ~500 ms even while stdin is idle. On platforms without
/// poll this degrades to Server::serve_stream's blocking std::getline.
void serve_stdin(Server& server, const std::stop_token& stop);

}  // namespace lrsizer::serve
