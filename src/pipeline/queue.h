// Bounded MPMC blocking queue used to pipeline mini-batch construction with model
// compute (Figure 2's "Pipeline Queue").
#ifndef SRC_PIPELINE_QUEUE_H_
#define SRC_PIPELINE_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "src/util/check.h"
#include "src/util/rv_monitor.h"

namespace mariusgnn {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    MG_CHECK(capacity > 0);
  }

  // Blocks while full. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    rv_occupancy_.ObserveOccupancy(items_.size(), capacity_);
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty. Returns nullopt when the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // Unblocks all waiters; Push fails and Pop drains then returns nullopt.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;

  // RV monitor (pipeline.queue_occupancy): observed under mu_ after each push, so
  // occupancy can never silently exceed capacity.
  RvOccupancyMonitor rv_occupancy_{RvInvariant::kQueueOccupancy};
};

}  // namespace mariusgnn

#endif  // SRC_PIPELINE_QUEUE_H_
