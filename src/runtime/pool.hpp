// The job-level execution engine: a fixed-size ThreadPool over one FIFO
// queue.
// Every worker pops from the same mutex-guarded deque, so queued tasks start
// in submit order (the oldest waiting task is always the next to start).
// Results come back through std::future, so exceptions thrown inside a task
// propagate to the caller at .get().
//
// The pool is the execution engine of the batch-flow layer (runtime/batch)
// and of the serve loop (serve/server). Its tasks are whole sizing jobs,
// each run serially (docs/ARCHITECTURE.md §Concurrency), so one queue is
// never the bottleneck.
#pragma once

#include <condition_variable>
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

  /// Runs every task submitted before destruction, then joins the workers.
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

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;

  // Guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace lrsizer::runtime
