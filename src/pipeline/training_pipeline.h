// Multi-stage asynchronous training pipeline (Section 3, Figure 2).
//
// MariusGNN keeps out-of-core training compute-bound by overlapping the CPU-heavy
// stages of an epoch with model compute. PipelineSession is the engine the epoch
// loop (TrainerBase::RunEpoch) runs every partition set through:
//
//   stage 1  batch construction — N workers on the shared ThreadPool each take the
//            next batch index from a ticket counter, build the batch (DENSE/layer-wise
//            sampling + negative sampling), and deposit it in a ring of
//            kPipelineLookahead + N slots: index i goes into slot i % window;
//   stage 2  in-order hand-off — the consumer takes slot consumed % window, waiting
//            only if that batch is still being built, so training is
//            bitwise-identical to a serial run for any worker count;
//   stage 3  compute — forward/backward/update runs on the calling thread (the
//            paper's GPU stage), while workers are already sampling future batches.
//
// Determinism contract: the producer callback must depend only on the batch index
// (derive per-batch RNG streams from MixSeed(run_seed, index)), never on which thread
// runs it or in which order batches finish. A ticket gate keeps every claimed index
// below consumed + window, which bounds memory and means a deposit always finds its
// slot empty.
//
// The consumer is the only consume loop. When the next index has not been claimed
// yet, it claims it and builds the batch on its own thread: with 0 workers that is
// every batch (the non-pipelined baseline, no threads started); with workers it is in
// practice a segment's first batch, the same caller-participation rule ForEachChunk
// (src/util/compute.h) uses.
//
// One session spans an epoch: the item stream is announced in segments (one per
// partition set), and the workers are launched once, when the session is built.
//
// The partition-IO stage of Figure 2 lives in PartitionBuffer::Prefetch (storage
// layer); the epoch loop stages the next set's new partitions (PrefetchDelta).
#ifndef SRC_PIPELINE_TRAINING_PIPELINE_H_
#define SRC_PIPELINE_TRAINING_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/util/rv_monitor.h"
#include "src/util/threadpool.h"

namespace mariusgnn {

// Prepared batches the window holds beyond one per worker (Figure 2's "Pipeline
// Queue" depth): workers run at most kPipelineLookahead + workers batches ahead.
inline constexpr int64_t kPipelineLookahead = 4;

struct PipelineSessionOptions {
  // Batch-construction workers. 0 runs everything serially on the calling thread
  // (same batch stream, no threads) — the non-pipelined baseline.
  int workers = 1;
  // Pool the workers run on; nullptr = ThreadPool::Global().
  ThreadPool* pool = nullptr;
};

// Per-stage timing breakdown of one session segment.
struct PipelineStats {
  double sample_seconds = 0.0;  // total batch-construction time across threads
  double stall_seconds = 0.0;   // consumer time blocked waiting for the next batch
  int64_t num_items = 0;
};

// A resumable pipeline run over an open-ended item stream. RunSegment announces
// `count` more items and delivers them to the consumer strictly in index order.
//
// Workers never claim an index beyond the announced limit. That is what makes
// per-partition-set segments safe: the producer callback may read per-set state
// (neighbor index, negative sampler, seed) that the caller swaps between
// segments, because no worker can run ahead into a segment that has not been
// announced. The swap is ordered by the gate mutex: state written before
// RunSegment is visible to every thread that claims one of the new indices.
//
// Threading: RunSegment must be called from the owning thread (the consumer);
// the producer callback runs on pool workers and on the owner, and must be
// thread-safe + index-deterministic. It must return a non-null item.
class PipelineSession {
 public:
  using Producer = std::function<std::shared_ptr<void>(int64_t index)>;
  using Consumer = std::function<void(void* item, int64_t index)>;

  PipelineSession(PipelineSessionOptions options, Producer produce, Consumer consume);
  ~PipelineSession();

  PipelineSession(const PipelineSession&) = delete;
  PipelineSession& operator=(const PipelineSession&) = delete;

  // Announces `count` more items, consumes them in index order, and returns the
  // segment's stage timings. An exception from the consumer propagates; the
  // session can then still be destroyed.
  PipelineStats RunSegment(int64_t count);

  int64_t announced() const { return announced_; }

 private:
  void LaunchWorkers(int count, ThreadPool* pool);
  // produce_(i), with its time added to sample_nanos_.
  std::shared_ptr<void> Produce(int64_t i);

  Producer produce_;
  Consumer consume_;
  const int64_t window_;  // kPipelineLookahead + workers

  // gate_mu_ guards the tickets, the slots and workers_left_. Workers claim the
  // next index only when it is below both the announced limit and
  // consumed + window, so slot i % window is always empty when i is deposited.
  std::mutex gate_mu_;
  std::condition_variable ticket_cv_;  // workers: a ticket opened, or stop_
  std::condition_variable slot_cv_;    // owner: a slot filled, or a worker exited
  std::vector<std::shared_ptr<void>> slots_;
  int64_t announced_ = 0;    // read lock-free by the owner, its only writer
  int64_t consumed_ = 0;     // read lock-free by the owner, its only writer
  int64_t next_ticket_ = 0;
  bool stop_ = false;
  int workers_left_ = 0;

  std::atomic<int64_t> sample_nanos_{0};

  // RV monitor (owner thread only): observes each index as it is handed to the
  // consumer (pipeline.ticket_order).
  RvSequenceMonitor rv_ticket_{RvInvariant::kTicketOrder};
};

}  // namespace mariusgnn

#endif  // SRC_PIPELINE_TRAINING_PIPELINE_H_
