// Minimal leveled logger writing to stderr.
//
// The library itself logs sparingly (one line per batch job at kDebug,
// which `--verbose` shows; per-iteration lines are the observer's job).
// No global mutable state other than the level, which is process-wide by
// design (it is a diagnostic knob, not program data).
//
// Thread safety: the level is atomic and the sink is a single mutex-guarded
// fprintf, so concurrent batch jobs (runtime/batch) emit whole lines without
// interleaving. The level check happens before anything is formatted, so a
// disabled level costs one relaxed load and never contends.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace lrsizer::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kSilent = 4 };

/// Process-wide minimum level that is actually emitted.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Emit one line at `level` (no newline needed in `message`).
void log_line(LogLevel level, const std::string& message);

namespace detail {

/// Formats one line, or nothing at all: the level is tested once, at
/// construction, and a filtered-out stream neither builds a buffer nor
/// formats its operands.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {
    if (static_cast<int>(level) >= static_cast<int>(log_level())) stream_.emplace();
  }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() {
    if (stream_) log_line(level_, stream_->str());
  }

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (stream_) *stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::optional<std::ostringstream> stream_;
};

}  // namespace detail

inline detail::LogStream log_debug() { return detail::LogStream(LogLevel::kDebug); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_error() { return detail::LogStream(LogLevel::kError); }

}  // namespace lrsizer::util
