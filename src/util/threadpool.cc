#include "src/util/threadpool.h"

#include <algorithm>

#include "src/util/check.h"

namespace mariusgnn {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MG_CHECK_MSG(!stop_, "Submit on stopped pool");
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

size_t ThreadPool::IdleThreads() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t busy = in_flight_ + tasks_.size();
  return workers_.size() > busy ? workers_.size() - busy : 0;
}

bool ThreadPool::OnWorkerThread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& w : workers_) {
    if (w.get_id() == self) {
      return true;
    }
  }
  return false;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace mariusgnn
