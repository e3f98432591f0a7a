// The job-level execution engine: a fixed-size ThreadPool with per-worker
// FIFO deques and work stealing.
// Submission round-robins tasks across the workers' deques; each worker
// drains its own deque front-to-back (FIFO, so batch jobs start in submit
// order) and, when empty, steals from the back of a sibling's deque. Results
// come back through std::future, so exceptions thrown inside a task
// propagate to the caller at .get().
//
// The pool is the execution engine of the batch-flow layer (runtime/batch);
// it is deliberately generic so other subsystems (async serving) can reuse
// it. Each job itself runs serially (docs/ARCHITECTURE.md §Concurrency).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lrsizer::runtime {

class ThreadPool {
 public:
  /// Start `num_workers` threads (0 means std::thread::hardware_concurrency,
  /// itself clamped to at least 1).
  explicit ThreadPool(int num_workers = 0);

  /// Drains nothing: tasks still queued are abandoned only after the ones
  /// already running finish; destruction blocks until every submitted task
  /// has run (the destructor first waits for the queues to empty).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueue `fn` and return a future for its result. Safe to call from any
  /// thread, including from inside a running task.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Block until every task submitted so far has finished executing.
  void wait_idle();

  /// Number of tasks a worker popped from a sibling's deque (diagnostic).
  std::int64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void enqueue(std::function<void()> task);
  void worker_loop(int self);
  bool try_pop_local(int self, std::function<void()>& task);
  bool try_steal(int self, std::function<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // `pending_` counts tasks enqueued but not yet popped; `active_` counts
  // tasks currently executing. Both are guarded by `sleep_mutex_` so workers
  // can sleep without lost wakeups and wait_idle() has a consistent view.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::condition_variable idle_cv_;
  int pending_ = 0;
  int active_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> next_queue_{0};
  std::atomic<std::int64_t> steals_{0};
};

}  // namespace lrsizer::runtime
