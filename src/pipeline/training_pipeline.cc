#include "src/pipeline/training_pipeline.h"

#include "src/util/check.h"
#include "src/util/timer.h"

namespace mariusgnn {

PipelineSession::PipelineSession(PipelineSessionOptions options, Producer produce,
                                 Consumer consume)
    : produce_(std::move(produce)),
      consume_(std::move(consume)),
      window_(kPipelineLookahead + options.workers),
      slots_(static_cast<size_t>(window_)) {
  MG_CHECK(options.workers >= 0);
  if (options.workers > 0) {
    // Resolved only when workers launch: a session with no workers (pipeline
    // off) must not start the global pool's threads, so a serial trainer leaves
    // no thread behind once it is destroyed (fork-based tests).
    LaunchWorkers(options.workers,
                  options.pool != nullptr ? options.pool : &ThreadPool::Global());
  }
}

// Workers parked on the gate see stop_; one still building a batch deposits it
// (its slot is empty by the gate rule) and then sees stop_. Whatever sits in the
// slots is dropped with the session.
PipelineSession::~PipelineSession() {
  std::unique_lock<std::mutex> lock(gate_mu_);
  stop_ = true;
  ticket_cv_.notify_all();
  slot_cv_.wait(lock, [this] { return workers_left_ == 0; });
}

void PipelineSession::LaunchWorkers(int count, ThreadPool* pool) {
  workers_left_ = count;
  for (int w = 0; w < count; ++w) {
    pool->Submit([this] {
      std::unique_lock<std::mutex> lock(gate_mu_);
      for (;;) {
        ticket_cv_.wait(lock, [this] {
          return stop_ ||
                 (next_ticket_ < announced_ && next_ticket_ < consumed_ + window_);
        });
        if (stop_) {
          break;
        }
        const int64_t i = next_ticket_++;
        lock.unlock();
        std::shared_ptr<void> item = Produce(i);
        lock.lock();
        std::shared_ptr<void>& slot = slots_[static_cast<size_t>(i % window_)];
        MG_CHECK_MSG(slot == nullptr, "pipeline slot still full: the ticket gate let a "
                                      "worker run more than the window ahead");
        slot = std::move(item);
        slot_cv_.notify_one();
      }
      --workers_left_;
      slot_cv_.notify_one();
    });
  }
}

std::shared_ptr<void> PipelineSession::Produce(int64_t i) {
  WallTimer timer;
  std::shared_ptr<void> item = produce_(i);
  sample_nanos_.fetch_add(static_cast<int64_t>(timer.Seconds() * 1e9),
                          std::memory_order_relaxed);
  MG_CHECK_MSG(item != nullptr, "pipeline producer returned a null item");
  return item;
}

PipelineStats PipelineSession::RunSegment(int64_t count) {
  MG_CHECK(count >= 0);
  const int64_t sample_nanos_start = sample_nanos_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    announced_ += count;
  }
  ticket_cv_.notify_all();

  PipelineStats stats;
  stats.num_items = count;
  const int64_t target = consumed_ + count;
  while (consumed_ < target) {
    const int64_t i = consumed_;
    std::shared_ptr<void> item;
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      if (next_ticket_ == i) {
        // No worker has claimed i: build it here rather than wait for one.
        ++next_ticket_;
        lock.unlock();
        item = Produce(i);
      } else {
        std::shared_ptr<void>& slot = slots_[static_cast<size_t>(i % window_)];
        if (slot == nullptr) {
          WallTimer wait_timer;
          slot_cv_.wait(lock, [&slot] { return slot != nullptr; });
          stats.stall_seconds += wait_timer.Seconds();
        }
        item = std::move(slot);
      }
    }
    rv_ticket_.Observe(i);
    consume_(item.get(), i);
    {
      std::lock_guard<std::mutex> lock(gate_mu_);
      ++consumed_;
    }
    ticket_cv_.notify_all();
  }

  stats.sample_seconds =
      static_cast<double>(sample_nanos_.load(std::memory_order_relaxed) -
                          sample_nanos_start) *
      1e-9;
  return stats;
}

}  // namespace mariusgnn
