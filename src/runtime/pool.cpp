#include "runtime/pool.hpp"

#include <algorithm>

namespace lrsizer::runtime {

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers <= 0) {
    num_workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Workers keep popping until the queue is empty, so every task submitted
  // before this point (or by a task still running) runs before the join.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ with nothing left to run
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // destroy its captures outside the lock
    lock.lock();
  }
}

}  // namespace lrsizer::runtime
