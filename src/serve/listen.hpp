// The request reader behind `lrsizer serve`: one poll(2) event loop for
// both transports.
//
// With a port it listens on 127.0.0.1:<port> and fans any number of
// concurrent TCP clients into one shared Server; with port -1 it serves one
// client on stdin/stdout instead. Either way every connection gets a line
// buffer on the read side (a line past ServerOptions::max_line_bytes is
// answered `oversized` and discarded) and a serialized sink on the write
// side (the Server guarantees whole-line writes per client). All clients
// share the server's ThreadPool, ResultCache, and backpressure budget; job
// ids are scoped per client. One client sending `shutdown` stops the whole
// service — it is an operator verb, not a disconnect (docs/SERVING.md
// §Transport).
//
// The loop itself is single-threaded: it only moves bytes and feeds
// complete lines to Server::handle_line; all sizing work happens on the
// pool. A TCP connection that disconnects mid-job has its jobs cancelled and
// its remaining responses dropped (Server::remove_client). EOF on stdin is
// not a disconnect: it stops reading and lets every accepted job answer.
//
// POSIX-only: on platforms without BSD sockets listen_and_serve fails
// immediately.
#pragma once

#include <atomic>
#include <cstdint>

#include "serve/server.hpp"

namespace lrsizer::serve {

/// Front-end configuration for listen_and_serve.
struct ListenOptions {
  /// jsonl port on 127.0.0.1; 0 binds an ephemeral port; -1 opens no
  /// listener and serves one client reading fd 0 and writing fd 1.
  int port = 0;
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

/// Serve `server` until `server.options().stop` is requested, a client
/// sends shutdown, a drain (Server::begin_drain) finds the server idle, or
/// stdin ends. Ports 0 bind ephemeral ports; the actual ports are written
/// to the ListenOptions out-pointers once each socket is listening and
/// always announced on stderr ("listening on 127.0.0.1:<port>" /
/// "metrics on 127.0.0.1:<port>"). Every accepted job has answered by the
/// time it returns. Returns 0 on clean shutdown, 1 when a socket could not
/// be opened (the reason is logged). The caller owns the Server and can
/// read stats after return.
int listen_and_serve(const ListenOptions& options, Server& server);

}  // namespace lrsizer::serve
