#include "runtime/pool.hpp"

#include <algorithm>

namespace lrsizer::runtime {

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers <= 0) {
    num_workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  queues_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  // Round-robin keeps the initial distribution balanced; stealing evens out
  // whatever imbalance job runtimes create afterwards.
  const auto slot = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                    queues_.size();
  // Count the task BEFORE publishing it: a worker may pop and finish it the
  // instant it hits the deque, and decrementing an uncounted task would make
  // pending_ transiently negative and lose the idle_cv_ notify that
  // wait_idle() depends on. Workers seeing pending_ > 0 with an empty deque
  // simply re-poll until the push below lands.
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_pop_local(int self, std::function<void()>& task) {
  auto& queue = *queues_[static_cast<std::size_t>(self)];
  std::lock_guard<std::mutex> lock(queue.mutex);
  if (queue.tasks.empty()) return false;
  task = std::move(queue.tasks.front());  // FIFO for the owner
  queue.tasks.pop_front();
  return true;
}

bool ThreadPool::try_steal(int self, std::function<void()>& task) {
  const auto n = queues_.size();
  for (std::size_t offset = 1; offset < n; ++offset) {
    auto& queue = *queues_[(static_cast<std::size_t>(self) + offset) % n];
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.tasks.empty()) continue;
    task = std::move(queue.tasks.back());  // LIFO end for thieves
    queue.tasks.pop_back();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(int self) {
  for (;;) {
    std::function<void()> task;
    if (try_pop_local(self, task) || try_steal(self, task)) {
      {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        --pending_;
        ++active_;
      }
      task();
      {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        --active_;
        if (pending_ == 0 && active_ == 0) idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (stop_) return;
    if (pending_ > 0) continue;  // raced with a submit; retry the deques
    sleep_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (stop_) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(sleep_mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0 && active_ == 0; });
}

}  // namespace lrsizer::runtime
