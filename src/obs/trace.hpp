// obs::TraceSession — per-job flow tracing in Chrome trace-event format.
//
// A TraceSession collects complete ("ph":"X") spans — SizingSession stages,
// OGWS iterations, LRS passes — with numeric metadata args, and serializes
// them as Chrome trace-event JSON (schema marker `lrsizer-trace-v1`,
// docs/SCHEMAS.md) loadable in Perfetto / chrome://tracing.
//
// The disabled path is a branch on a null pointer: every tracing hook in the
// flow is `obs::TraceSession* trace` defaulting to nullptr, and ScopedSpan's
// constructor/destructor return immediately when the session is null — no
// clock read, no allocation, no lock. Bit-determinism of FlowResult is
// unaffected either way: tracing only reads optimizer state, never writes
// it.
//
// Thread-safety: record() appends under a mutex (batch workers may trace
// concurrently into one session); timestamps come from one
// steady_clock origin per session, so spans from every thread share a
// timeline. Thread ids are mapped to small dense ints in first-seen order.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace lrsizer::obs {

class TraceSession {
 public:
  /// Numeric span metadata, rendered into the event's "args" object.
  using Args = std::vector<std::pair<std::string, double>>;

  struct Span {
    std::string name;
    std::string category;
    std::uint64_t ts_us = 0;   ///< microseconds since session start
    std::uint64_t dur_us = 0;
    int tid = 0;               ///< dense per-session thread index
    Args args;
  };

  TraceSession() : origin_(std::chrono::steady_clock::now()) {}

  /// Microseconds since the session's origin (monotonic).
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  /// Record one complete span [begin_us, end_us] on the calling thread.
  void record(std::string name, std::string category, std::uint64_t begin_us,
              std::uint64_t end_us, Args args = {});

  std::size_t span_count() const;
  /// Copy of the recorded spans (tests and the serve result attachment).
  std::vector<Span> spans() const;

  /// Serialize as Chrome trace-event JSON:
  ///   {"schema":"lrsizer-trace-v1","traceEvents":[{...,"ph":"X",...}]}
  /// One line, compact — serve attaches it to result responses verbatim.
  std::string dump_json() const;

  /// dump_json() to a file; false (with *error set) on I/O failure.
  bool write_file(const std::string& path, std::string* error = nullptr) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tid_of_;  ///< guarded by mutex_
};

/// RAII span: times its own scope and records on destruction (or finish()).
/// With a null session every member is a no-op behind one pointer test.
class ScopedSpan {
 public:
  ScopedSpan(TraceSession* session, const char* name, const char* category)
      : session_(session), name_(name), category_(category) {
    if (session_ == nullptr) return;
    begin_us_ = session_->now_us();
  }
  ~ScopedSpan() { finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach one numeric arg (ignored when disabled).
  void arg(const char* key, double value) {
    if (session_ == nullptr) return;
    args_.emplace_back(key, value);
  }

  /// Record now instead of at scope exit; idempotent.
  void finish() {
    if (session_ == nullptr) return;
    session_->record(name_, category_, begin_us_, session_->now_us(),
                     std::move(args_));
    session_ = nullptr;
  }

 private:
  TraceSession* session_;
  const char* name_;
  const char* category_;
  std::uint64_t begin_us_ = 0;
  TraceSession::Args args_;
};

}  // namespace lrsizer::obs
