// obs::Registry — the process-observability metrics registry.
//
// Instruments (Counter, Gauge, Histogram) are created once through the
// registry and then written through stable pointers: the hot path is one
// relaxed atomic op per event, no lock, no allocation — cheap enough to sit
// inside the serve loop's admission path.
// snapshot() assembles one coherent picture under a single mutex; the
// Prometheus renderer (obs/prometheus.hpp) and the serve stats surface both
// read from it, so the two can never disagree about a counter's value.
//
// Two kinds of metrics:
//   * owned instruments (counter/gauge/histogram): the registry owns the
//     atomic storage; callers keep the returned pointer and write into it.
//     Registration is idempotent — the same (name, labels) hands back the
//     same instrument, so repeated wiring (e.g. run_batch called twice with
//     one registry) accumulates instead of colliding.
//   * callback metrics (counter_fn/gauge_fn): the value's source of truth
//     lives elsewhere (ResultCache::stats(), a queue depth under someone
//     else's mutex) and is read at snapshot() time. Re-registering the same
//     (name, labels) replaces the callback; remove_owner() drops every
//     callback tagged with an owner before that owner dies.
//
// Names and labels are validated against the Prometheus data-model rules
// (metric: [a-zA-Z_:][a-zA-Z0-9_:]*, label: [a-zA-Z_][a-zA-Z0-9_]*);
// violations throw std::invalid_argument at registration, never at write.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace lrsizer::obs {

/// Label set of one instrument: (name, value) pairs. Order-insensitive for
/// identity — the registry sorts a copy by label name when matching, and the
/// renderer emits them sorted, so {a=1,b=2} and {b=2,a=1} are one series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event counter. inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value. set() is one relaxed store.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket distribution. Bucket upper bounds are set at registration
/// (ascending, finite); the implicit +Inf bucket catches the overflow.
/// observe() is a branchless-ish upper-bound search plus two relaxed atomic
/// adds — no lock.
class Histogram {
 public:
  /// `bounds` must be strictly ascending and finite (validated by the
  /// registry at registration).
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) counts; index bounds().size() is +Inf.
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Frozen histogram state inside a snapshot.
struct HistogramValue {
  std::vector<double> bounds;           ///< finite upper bounds, ascending
  std::vector<std::uint64_t> counts;    ///< per-bucket; last entry is +Inf
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// One labeled series inside a family.
struct Sample {
  Labels labels;  ///< sorted by label name
  double value = 0.0;
  std::optional<HistogramValue> histogram;  ///< engaged for histograms
};

/// Every series sharing one metric name, with its help text and type.
struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<Sample> samples;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Owned instruments. The returned pointer is stable for the registry's
  /// lifetime. Same (name, labels) → same instrument; same name with a
  /// different type or help → std::invalid_argument.
  Counter* counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge* gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  Histogram* histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, Labels labels = {});

  /// Callback metrics, evaluated at snapshot() time. `owner` (optional) tags
  /// the callback for remove_owner(). Re-registering an existing
  /// (name, labels) replaces the previous callback.
  void counter_fn(const std::string& name, const std::string& help,
                  Labels labels, std::function<double()> fn,
                  const void* owner = nullptr);
  void gauge_fn(const std::string& name, const std::string& help,
                Labels labels, std::function<double()> fn,
                const void* owner = nullptr);

  /// Drop every callback metric registered with this owner tag (call before
  /// the object the callbacks read from is destroyed). Owned instruments are
  /// never removed — their storage lives in the registry.
  void remove_owner(const void* owner);

  /// One coherent picture: families sorted by name, samples in registration
  /// order, callbacks evaluated now. Taken under one mutex.
  std::vector<MetricFamily> snapshot() const;

  // Prometheus data-model validation (exposed for tests).
  static bool valid_metric_name(const std::string& name);
  static bool valid_label_name(const std::string& name);

 private:
  struct Instrument {
    Labels labels;  ///< sorted by label name
    // Exactly one of these is set.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> fn;
    const void* owner = nullptr;  ///< callback metrics only
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<double> bounds;  ///< histograms: shared bucket layout
    std::vector<Instrument> instruments;
  };

  /// Locate/create the family, enforcing name/label validity and type/help
  /// consistency. Returns the instrument slot for (name, labels), creating
  /// it when new. Caller holds mutex_.
  Instrument* find_or_create(const std::string& name, const std::string& help,
                             MetricType type, Labels labels, bool* created);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;  ///< sorted: stable render order
};

}  // namespace lrsizer::obs
