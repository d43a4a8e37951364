#include "src/pipeline/training_pipeline.h"

#include "src/util/check.h"
#include "src/util/timer.h"

namespace mariusgnn {

PipelineSession::PipelineSession(PipelineSessionOptions options, Producer produce,
                                 Consumer consume)
    : options_(std::move(options)),
      produce_(std::move(produce)),
      consume_(std::move(consume)),
      queue_(options_.queue_capacity),
      window_(static_cast<int64_t>(options_.queue_capacity) + options_.workers) {
  MG_CHECK(options_.queue_capacity > 0);
  MG_CHECK(options_.workers >= 0);
  if (options_.workers > 0) {
    LaunchWorkers();
  }
}

// Workers parked on the gate see stop_; a worker blocked on the full queue, or
// one that finishes its batch after the close, fails its push. Either way it
// exits, and whatever is still queued is dropped with the queue.
PipelineSession::~PipelineSession() {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    stop_ = true;
  }
  gate_cv_.notify_all();
  queue_.Close();
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return workers_left_ == 0; });
}

void PipelineSession::LaunchWorkers() {
  const int count = options_.workers;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    workers_left_ = count;
  }
  // Resolved only when workers launch: a session with no workers (pipeline off)
  // must not start the global pool's threads, so a serial trainer leaves no
  // thread behind once it is destroyed (fork-based tests).
  ThreadPool* pool = options_.pool != nullptr ? options_.pool : &ThreadPool::Global();
  for (int w = 0; w < count; ++w) {
    pool->Submit([this] {
      for (;;) {
        int64_t i;
        {
          std::unique_lock<std::mutex> lock(gate_mu_);
          gate_cv_.wait(lock, [this] {
            return stop_ ||
                   (next_ticket_ < announced_ && next_ticket_ < consumed_ + window_);
          });
          if (stop_) {
            break;
          }
          i = next_ticket_++;
        }
        WallTimer timer;
        std::shared_ptr<void> item = produce_(i);
        sample_nanos_.fetch_add(static_cast<int64_t>(timer.Seconds() * 1e9),
                                std::memory_order_relaxed);
        if (!queue_.Push(Produced{i, std::move(item)})) {
          break;  // queue closed (session teardown)
        }
      }
      std::lock_guard<std::mutex> lock(done_mu_);
      if (--workers_left_ == 0) {
        done_cv_.notify_all();
      }
    });
  }
}

int64_t PipelineSession::Extend(int64_t count) {
  MG_CHECK(count >= 0);
  int64_t total;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    announced_ += count;
    total = announced_;
  }
  gate_cv_.notify_all();
  return total;
}

PipelineStats PipelineSession::ConsumeSerial(int64_t target) {
  PipelineStats stats;
  while (consumed_ < target) {
    const int64_t i = consumed_;
    WallTimer sample_timer;
    std::shared_ptr<void> item = produce_(i);
    stats.sample_seconds += sample_timer.Seconds();
    rv_ticket_.Observe(i);
    WallTimer compute_timer;
    consume_(item.get(), i);
    stats.compute_seconds += compute_timer.Seconds();
    ++consumed_;
  }
  return stats;
}

PipelineStats PipelineSession::Consume(int64_t count) {
  MG_CHECK(count >= 0);
  const int64_t target = consumed_ + count;
  MG_CHECK_MSG(target <= announced_, "Consume beyond the announced stream");
  if (options_.workers == 0) {
    PipelineStats stats = ConsumeSerial(target);
    stats.num_items = count;
    return stats;
  }

  const int64_t sample_nanos_start = sample_nanos_.load(std::memory_order_relaxed);

  PipelineStats stats;
  while (consumed_ < target) {
    auto it = reorder_.find(consumed_);
    if (it == reorder_.end()) {
      WallTimer wait_timer;
      std::optional<Produced> got = queue_.Pop();
      stats.stall_seconds += wait_timer.Seconds();
      MG_CHECK(got.has_value());
      reorder_.emplace(got->index, std::move(got->item));
      continue;
    }
    std::shared_ptr<void> item = std::move(it->second);
    reorder_.erase(it);
    rv_ticket_.Observe(consumed_);
    WallTimer compute_timer;
    consume_(item.get(), consumed_);
    stats.compute_seconds += compute_timer.Seconds();
    {
      std::lock_guard<std::mutex> lock(gate_mu_);
      ++consumed_;
    }
    gate_cv_.notify_all();
  }

  stats.num_items = count;
  stats.sample_seconds =
      static_cast<double>(sample_nanos_.load(std::memory_order_relaxed) -
                          sample_nanos_start) *
      1e-9;
  return stats;
}

}  // namespace mariusgnn
