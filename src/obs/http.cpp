#include "obs/http.hpp"

namespace lrsizer::obs {

namespace {

/// RFC 9110 token characters (method names).
bool token_char(char c) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
    return true;
  }
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

}  // namespace

HttpRequestParser::State HttpRequestParser::parse_request_line(
    std::size_t line_end) {
  const std::string line = buffer_.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.find(' ', sp2 + 1) != std::string::npos) {
    return fail(400, "malformed request line");
  }
  request_.method = line.substr(0, sp1);
  request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  request_.version = line.substr(sp2 + 1);
  if (request_.method.empty() || request_.target.empty()) {
    return fail(400, "malformed request line");
  }
  for (char c : request_.method) {
    if (!token_char(c)) return fail(400, "invalid method token");
  }
  if (request_.version.rfind("HTTP/1.", 0) != 0 ||
      request_.version.size() != 8 || request_.version[7] < '0' ||
      request_.version[7] > '9') {
    return fail(400, "unsupported HTTP version");
  }
  return State::kIncomplete;  // request line fine; headers still pending
}

HttpRequestParser::State HttpRequestParser::feed(const char* data,
                                                 std::size_t n) {
  if (state_ != State::kIncomplete) return state_;
  buffer_.append(data, n);
  if (buffer_.size() > max_bytes_) {
    return fail(400, "request header exceeds " + std::to_string(max_bytes_) +
                         " bytes");
  }
  // Every line in the header section must end CRLF; a bare LF is a
  // violation, not a lenient alternative.
  std::size_t scan = buffer_.find('\n');
  while (scan != std::string::npos) {
    if (scan == 0 || buffer_[scan - 1] != '\r') {
      return fail(400, "bare LF in request header (CRLF required)");
    }
    scan = buffer_.find('\n', scan + 1);
  }
  const std::size_t line_end = buffer_.find("\r\n");
  if (line_end == std::string::npos) return State::kIncomplete;
  if (request_.method.empty()) {
    if (const State st = parse_request_line(line_end); st == State::kBad) {
      return st;
    }
  }
  // Complete once the blank line terminating the (ignored) headers arrives.
  if (buffer_.find("\r\n\r\n") != std::string::npos) {
    state_ = State::kComplete;
  }
  return state_;
}

std::string http_response(int status, const std::string& reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + ' ' + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace lrsizer::obs
