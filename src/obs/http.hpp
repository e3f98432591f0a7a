// Minimal HTTP/1.1 GET front-end for the metrics endpoint — just enough of
// RFC 9112 to answer a scrape: an incremental request parser (request line +
// headers, headers ignored) and a Connection: close response builder. The
// serve event loop (serve/listen.cpp) feeds raw bytes in as they arrive and
// closes the connection after one response; there is no keep-alive, no
// body handling, no chunked anything.
//
// Defensive by construction (the metrics port faces the same untrusted
// peers as the jsonl port):
//   * total header bytes are capped (default 8 KiB) — an oversized or
//     newline-free request line turns into 400 instead of unbounded
//     buffering;
//   * a bare LF (missing CR) anywhere in the header section is 400 — no
//     lenient parsing that request-smuggling tricks rely on;
//   * a malformed request line (token count, HTTP version) is 400;
//   * slowloris-style dribble never blocks: the parser is pull-based and
//     stateless between feeds, and EOF before completion simply closes.
//
// Parsing lives here, free of sockets, so the fuzz battery can drive it
// byte-by-byte without a listener.
#pragma once

#include <cstddef>
#include <string>

namespace lrsizer::obs {

struct HttpRequest {
  std::string method;   ///< e.g. "GET" (any token accepted; routing rejects)
  std::string target;   ///< e.g. "/metrics" (query string included verbatim)
  std::string version;  ///< e.g. "HTTP/1.1"
};

class HttpRequestParser {
 public:
  enum class State {
    kIncomplete,  ///< need more bytes
    kComplete,    ///< request() is valid; headers were consumed and ignored
    kBad,         ///< protocol violation; error_status()/error_reason() set
  };

  explicit HttpRequestParser(std::size_t max_bytes = 8192)
      : max_bytes_(max_bytes) {}

  /// Consume `n` more bytes. Once kComplete or kBad is returned the parser
  /// stays in that state (one request per connection).
  State feed(const char* data, std::size_t n);

  State state() const { return state_; }
  const HttpRequest& request() const { return request_; }
  int error_status() const { return error_status_; }
  const std::string& error_reason() const { return error_reason_; }

 private:
  State fail(int status, std::string reason) {
    state_ = State::kBad;
    error_status_ = status;
    error_reason_ = std::move(reason);
    return state_;
  }
  /// Parse the request line out of buffer_[0, line_end); kBad on violation.
  State parse_request_line(std::size_t line_end);

  std::size_t max_bytes_;
  std::string buffer_;
  State state_ = State::kIncomplete;
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_reason_;
};

/// One complete HTTP/1.1 response with Content-Length and
/// `Connection: close` — the writer's whole contract.
std::string http_response(int status, const std::string& reason,
                          const std::string& content_type,
                          const std::string& body);

}  // namespace lrsizer::obs
