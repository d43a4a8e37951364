// Fixed-size worker pool. The pipeline's sampling workers run on it, and
// ForEachChunk (src/util/compute.h) fans stage-3 kernels out onto it in fixed
// chunks — the one parallel-for in the system.
#ifndef SRC_UTIL_THREADPOOL_H_
#define SRC_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mariusgnn {

class ThreadPool {
 public:
  // num_threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task; fire-and-forget (use ForEachChunk for joinable work).
  void Submit(std::function<void()> task);

  // True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  // Workers neither running nor already promised a queued task. Advisory (the value
  // is stale the moment the lock drops): callers use it to avoid queueing helper
  // tasks behind epoch-long occupants (e.g. pipeline batch-construction workers).
  size_t IdleThreads();

  // Blocks until the queue is empty and all in-flight tasks finished.
  void Wait();

  // Process-wide shared pool.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace mariusgnn

#endif  // SRC_UTIL_THREADPOOL_H_
