// Tests for the pipeline layer: BoundedQueue under multi-producer/multi-consumer
// load (including the occupancy instrumentation), PipelineSession's
// order-preserving reassembly and determinism, its segmented runs and mid-run
// resizes, and the PipelineController's decision rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/pipeline/pipeline_controller.h"
#include "src/pipeline/queue.h"
#include "src/pipeline/training_pipeline.h"
#include "src/util/compute.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace mariusgnn {
namespace {

TEST(BoundedQueue, MultiProducerMultiConsumerDeliversEverything) {
  BoundedQueue<int64_t> q(8);
  const int kProducers = 4;
  const int kConsumers = 3;
  const int64_t kPerProducer = 500;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(static_cast<int64_t>(p) * kPerProducer + i));
      }
    });
  }
  std::mutex mu;
  std::vector<int64_t> received;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::optional<int64_t> v = q.Pop();
        if (!v.has_value()) {
          return;
        }
        std::lock_guard<std::mutex> lock(mu);
        received.push_back(*v);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  for (auto& t : consumers) {
    t.join();
  }
  ASSERT_EQ(received.size(), static_cast<size_t>(kProducers) * kPerProducer);
  std::set<int64_t> unique(received.begin(), received.end());
  EXPECT_EQ(unique.size(), received.size());  // no duplicates, no losses
}

TEST(BoundedQueue, CloseUnblocksBlockedProducers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(0));
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < 3; ++i) {
    producers.emplace_back([&] {
      if (!q.Push(1)) {  // blocks on the full queue until Close
        rejected.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(rejected.load(), 3);
}

TEST(BoundedQueue, CloseUnblocksBlockedConsumers) {
  BoundedQueue<int> q(4);
  std::atomic<int> empty_pops{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      if (!q.Pop().has_value()) {  // blocks on the empty queue until Close
        empty_pops.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(empty_pops.load(), 3);
}

TEST(BoundedQueue, CapacityBackpressure) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(0));
  ASSERT_TRUE(q.Push(1));
  EXPECT_EQ(q.Size(), 2u);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.Push(2);
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());  // held back by capacity
  EXPECT_EQ(q.Pop().value(), 0);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(BoundedQueue, DrainAfterCloseKeepsFifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Push(i));
  }
  q.Close();
  EXPECT_FALSE(q.Push(99));  // rejected after close
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // buffered items drain in order
  }
  EXPECT_FALSE(q.Pop().has_value());  // then closed-and-empty
}

TEST(BoundedQueue, TryPopIsNonBlocking) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.TryPop().has_value());  // empty: returns immediately
  ASSERT_TRUE(q.Push(7));
  ASSERT_TRUE(q.Push(8));
  EXPECT_EQ(q.TryPop().value(), 7);
  EXPECT_EQ(q.TryPop().value(), 8);
  EXPECT_FALSE(q.TryPop().has_value());
  q.Close();
  EXPECT_FALSE(q.TryPop().has_value());  // closed-and-empty: still non-blocking
}

TEST(BoundedQueue, OccupancyWindowTracksWatermarksAndIntegral) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  ASSERT_TRUE(q.Push(3));
  // Hold occupancy 3 for a measurable interval so the integral must register it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(q.Pop().has_value());
  ASSERT_TRUE(q.Pop().has_value());
  const QueueStats stats = q.WindowStats();
  EXPECT_EQ(stats.high_watermark, 3u);
  EXPECT_EQ(stats.low_watermark, 0u);  // the window started on an empty queue
  EXPECT_EQ(stats.pushes, 3);
  EXPECT_EQ(stats.pops, 2);
  // >= 3 items x 20ms, minus generous scheduler slack.
  EXPECT_GT(stats.occupancy_integral, 0.030);
  EXPECT_GT(stats.window_seconds, 0.015);
  EXPECT_GE(stats.MeanOccupancy(), 0.0);
  EXPECT_LE(stats.MeanOccupancy(), 4.0);  // mean can never exceed capacity
}

TEST(BoundedQueue, WindowStatsStartsAFreshWindow) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  (void)q.WindowStats();  // first window: 2 pushes
  const QueueStats fresh = q.WindowStats();
  EXPECT_EQ(fresh.pushes, 0);
  EXPECT_EQ(fresh.pops, 0);
  // Watermarks reset to the occupancy at the window boundary, not to zero.
  EXPECT_EQ(fresh.high_watermark, 2u);
  EXPECT_EQ(fresh.low_watermark, 2u);
}

TEST(BoundedQueue, CapacityOnePingPongStats) {
  // Capacity 1 forces strict producer/consumer alternation: every push blocks
  // until the previous item was popped, the hardest case for both the
  // backpressure path and the occupancy accounting.
  BoundedQueue<int> q(1);
  const int kItems = 1000;
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) {
      ASSERT_TRUE(q.Push(i));
    }
  });
  for (int i = 0; i < kItems; ++i) {
    const std::optional<int> v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // FIFO survives the ping-pong
  }
  producer.join();
  const QueueStats stats = q.WindowStats();
  EXPECT_EQ(stats.pushes, kItems);
  EXPECT_EQ(stats.pops, kItems);
  EXPECT_EQ(stats.high_watermark, 1u);
  EXPECT_EQ(stats.low_watermark, 0u);
  EXPECT_LE(stats.MeanOccupancy(), 1.0);
}

TEST(BoundedQueue, StatsConsistentUnderConcurrentPushPop) {
  BoundedQueue<int64_t> q(8);
  const int kProducers = 4;
  const int kConsumers = 3;
  const int64_t kPerProducer = 400;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(static_cast<int64_t>(p) * kPerProducer + i));
      }
    });
  }
  std::atomic<int64_t> received{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (q.Pop().has_value()) {
        received.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  for (auto& t : consumers) {
    t.join();
  }
  const int64_t total = static_cast<int64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(received.load(), total);
  const QueueStats stats = q.WindowStats();
  EXPECT_EQ(stats.pushes, total);
  EXPECT_EQ(stats.pops, total);
  EXPECT_LE(stats.high_watermark, 8u);  // never above capacity
  EXPECT_EQ(stats.low_watermark, 0u);   // drained at the end
  EXPECT_GE(stats.occupancy_integral, 0.0);
  EXPECT_LE(stats.MeanOccupancy(), 8.0);
}

// Runs produce(i) / consume(item, i) for i in [0, n) as one typed
// PipelineSession segment: the shape the epoch loop gives each partition set.
template <typename T, typename P, typename C>
PipelineStats RunOneSegment(const PipelineSessionOptions& options, int64_t n,
                            P&& produce, C&& consume) {
  PipelineSession session(
      options,
      [&produce](int64_t i) -> std::shared_ptr<void> {
        return std::make_shared<T>(produce(i));
      },
      [&consume](void* item, int64_t i) { consume(*static_cast<T*>(item), i); });
  return session.RunSegment(n);
}

TEST(PipelineSession, OrderedDeliveryWithJitteredProducers) {
  ThreadPool pool(4);
  PipelineSessionOptions options;
  options.workers = 4;
  options.queue_capacity = 3;
  options.pool = &pool;

  const int64_t n = 200;
  std::vector<int64_t> consumed;
  const PipelineStats stats = RunOneSegment<int64_t>(
      options, n,
      [](int64_t i) {
        // Uneven production times force out-of-order completion.
        std::this_thread::sleep_for(std::chrono::microseconds((i * 7) % 300));
        return i * 2;
      },
      [&](int64_t& item, int64_t i) {
        EXPECT_EQ(item, i * 2);
        consumed.push_back(item);
      });
  ASSERT_EQ(consumed.size(), static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(consumed[static_cast<size_t>(i)], i * 2);
  }
  EXPECT_EQ(stats.num_items, n);
  EXPECT_GT(stats.sample_seconds, 0.0);
}

TEST(PipelineSession, WorkerCountNeverChangesConsumedSequence) {
  ThreadPool pool(4);
  // A producer that is a pure function of the index (the determinism contract).
  auto produce = [](int64_t i) { return MixSeed(42, static_cast<uint64_t>(i)); };
  std::vector<std::vector<uint64_t>> runs;
  for (int workers : {0, 1, 2, 4}) {
    PipelineSessionOptions options;
    options.workers = workers;
    options.queue_capacity = 2;
    options.pool = &pool;
    std::vector<uint64_t> out;
    RunOneSegment<uint64_t>(options, 97, produce,
                            [&](uint64_t& item, int64_t) { out.push_back(item); });
    runs.push_back(std::move(out));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r], runs[0]);
  }
}

TEST(PipelineSession, SerialModeRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  int64_t produced_on_caller = 0;
  const PipelineStats stats = RunOneSegment<int>(
      PipelineSessionOptions{0, 4, nullptr}, 10,
      [&](int64_t i) {
        if (std::this_thread::get_id() == caller) {
          ++produced_on_caller;
        }
        return static_cast<int>(i);
      },
      [](int&, int64_t) {});
  EXPECT_EQ(produced_on_caller, 10);
  EXPECT_EQ(stats.num_items, 10);
  EXPECT_DOUBLE_EQ(stats.stall_seconds, 0.0);
}

TEST(PipelineSession, EmptySegmentIsNoop) {
  int calls = 0;
  const PipelineStats stats = RunOneSegment<int>(
      PipelineSessionOptions(), 0, [&](int64_t) { return ++calls; },
      [&](int&, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats.num_items, 0);
}

TEST(PipelineSession, SegmentsSliceEachSetsExamples) {
  // The epoch loop's slicing: each set's examples are one segment, and the
  // producer maps the session-global index back to the set's batch number
  // (index - the announced count when the segment began).
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;
  options.pool = &pool;
  struct Slice {
    int64_t begin, end, batch;
  };
  const int64_t batch_size = 10;
  int64_t set_total = 0;
  int64_t base = 0;
  std::vector<Slice> seen;
  PipelineSession session(
      options,
      [&](int64_t index) -> std::shared_ptr<void> {
        const int64_t b = index - base;
        const int64_t begin = b * batch_size;
        return std::make_shared<Slice>(
            Slice{begin, std::min(begin + batch_size, set_total), b});
      },
      [&](void* item, int64_t) { seen.push_back(*static_cast<Slice*>(item)); });
  for (int64_t total : {103, 7, 20}) {
    set_total = total;
    base = session.announced();
    seen.clear();
    const int64_t num_batches = (total + batch_size - 1) / batch_size;
    EXPECT_EQ(session.RunSegment(num_batches).num_items, num_batches);
    ASSERT_EQ(static_cast<int64_t>(seen.size()), num_batches);
    int64_t covered = 0;
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].batch, static_cast<int64_t>(i));
      EXPECT_EQ(seen[i].begin, static_cast<int64_t>(i) * batch_size);
      covered += seen[i].end - seen[i].begin;
    }
    EXPECT_EQ(covered, total);
    EXPECT_EQ(seen.back().end, total);
  }
}

TEST(PipelineSession, MoreWorkersThanPoolThreadsStillCompletes) {
  ThreadPool pool(1);  // workers serialize on the single pool thread
  PipelineSessionOptions options;
  options.workers = 4;
  options.queue_capacity = 2;
  options.pool = &pool;
  std::vector<int64_t> consumed;
  RunOneSegment<int64_t>(
      options, 50, [](int64_t i) { return i; },
      [&](int64_t& item, int64_t i) {
        EXPECT_EQ(item, i);
        consumed.push_back(item);
      });
  EXPECT_EQ(consumed.size(), 50u);
}

TEST(PipelineSession, ComputeChunksOnSaturatedPipelinePoolCannotDeadlock) {
  // The stage-3 deadlock hazard: every pool thread is a pipeline worker that can
  // block on the batch-window gate or the bounded queue during compute, so compute
  // helper tasks submitted to the same pool may never run. ForEachChunk must make
  // progress through the calling thread alone — and still produce the same bits.
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;  // saturate the pool
  options.queue_capacity = 1;
  options.pool = &pool;
  ComputeContext ctx;
  ctx.pool = &pool;

  const int64_t n = 20000;  // several chunks at every grain
  std::vector<float> expected(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    expected[static_cast<size_t>(i)] = static_cast<float>(i) * 0.5f;
  }
  int64_t batches_ok = 0;
  RunOneSegment<int64_t>(
      options, 30, [](int64_t i) { return i; },
      [&](int64_t& item, int64_t i) {
        EXPECT_EQ(item, i);
        // Consumer-side parallel compute on the saturated pool.
        std::vector<float> out(static_cast<size_t>(n));
        ForEachChunk(&ctx, n, kComputeGrainElems,
                     [&](int64_t, int64_t begin, int64_t end) {
                       for (int64_t k = begin; k < end; ++k) {
                         out[static_cast<size_t>(k)] = static_cast<float>(k) * 0.5f;
                       }
                     });
        if (out == expected) {
          ++batches_ok;
        }
      });
  EXPECT_EQ(batches_ok, 30);
}

// ---------------------------------------------------------------------------
// PipelineSession: segmented/resumable runs with mid-run worker resizes. The
// ticket counter, window gate, and reorder buffer must survive a resize, so the
// consumed sequence is always the full announced stream in index order —
// bitwise-equal to a fixed-worker run — no matter where resizes land.

std::shared_ptr<void> SeededItem(uint64_t seed, int64_t i) {
  return std::make_shared<uint64_t>(MixSeed(seed, static_cast<uint64_t>(i)));
}

TEST(PipelineSession, SegmentsWithResizesMatchFixedWorkerRun) {
  ThreadPool pool(4);
  const uint64_t kSeed = 99;
  const int64_t n = 200;

  // Reference: one fixed-worker segment over the same pure producer.
  std::vector<uint64_t> expected;
  {
    PipelineSessionOptions options;
    options.workers = 2;
    options.queue_capacity = 3;
    options.pool = &pool;
    PipelineSession session(
        options, [&](int64_t i) { return SeededItem(kSeed, i); },
        [&](void* item, int64_t) { expected.push_back(*static_cast<uint64_t*>(item)); });
    session.RunSegment(n);
  }

  PipelineSessionOptions options;
  options.workers = 3;
  options.queue_capacity = 3;
  options.pool = &pool;
  std::vector<uint64_t> got;
  PipelineSession session(
      options, [&](int64_t i) { return SeededItem(kSeed, i); },
      [&](void* item, int64_t) { got.push_back(*static_cast<uint64_t*>(item)); });

  // Uneven segments with a resize at every boundary (grow and shrink).
  const int64_t segments[] = {1, 49, 10, 90, 50};
  const int resizes[] = {1, 4, 2, 3, 1};
  for (size_t s = 0; s < 5; ++s) {
    const PipelineStats ps = session.RunSegment(segments[s]);
    EXPECT_EQ(ps.num_items, segments[s]);
    session.Resize(resizes[s]);
    EXPECT_EQ(session.workers(), resizes[s]);
  }
  EXPECT_EQ(session.consumed(), n);
  EXPECT_EQ(session.resize_count(), 5);
  EXPECT_EQ(got, expected);
}

TEST(PipelineSession, ExtendAheadOfConsumeKeepsOrder) {
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;
  options.queue_capacity = 2;
  options.pool = &pool;
  std::vector<int64_t> got;
  PipelineSession session(
      options,
      [](int64_t i) -> std::shared_ptr<void> { return std::make_shared<int64_t>(i * 3); },
      [&](void* item, int64_t i) {
        EXPECT_EQ(*static_cast<int64_t*>(item), i * 3);
        got.push_back(*static_cast<int64_t*>(item));
      });
  session.Extend(60);  // announce everything; consume in uneven pieces
  EXPECT_EQ(session.announced(), 60);
  session.Consume(10);
  session.Consume(1);
  session.Consume(49);
  ASSERT_EQ(got.size(), 60u);
  for (int64_t i = 0; i < 60; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], i * 3);
  }
}

TEST(PipelineSession, SerialSessionRunsInlineAndSupportsSegments) {
  PipelineSessionOptions options;
  options.workers = 0;
  const std::thread::id caller = std::this_thread::get_id();
  int64_t on_caller = 0;
  std::vector<int64_t> got;
  PipelineSession session(
      options,
      [&](int64_t i) -> std::shared_ptr<void> {
        if (std::this_thread::get_id() == caller) {
          ++on_caller;
        }
        return std::make_shared<int64_t>(i);
      },
      [&](void* item, int64_t) { got.push_back(*static_cast<int64_t*>(item)); });
  session.RunSegment(5);
  const PipelineStats ps = session.RunSegment(7);
  EXPECT_EQ(ps.num_items, 7);
  EXPECT_DOUBLE_EQ(ps.stall_seconds, 0.0);
  EXPECT_EQ(on_caller, 12);
  EXPECT_EQ(got.size(), 12u);
}

TEST(PipelineSession, ReportsQueueOccupancyPerSegment) {
  // Fast producers + a slow consumer pin the queue at capacity, so the segment's
  // time-weighted occupancy must come out high; the signal feeding the controller.
  ThreadPool pool(4);
  PipelineSessionOptions options;
  options.workers = 4;
  options.queue_capacity = 2;
  options.pool = &pool;
  PipelineSession session(
      options,
      [](int64_t i) -> std::shared_ptr<void> { return std::make_shared<int64_t>(i); },
      [](void*, int64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
  const PipelineStats ps = session.RunSegment(40);
  EXPECT_EQ(ps.workers, 4);
  EXPECT_GE(ps.queue_occupancy_mean, 0.0);
  EXPECT_LE(ps.queue_occupancy_mean, 1.0);
  EXPECT_GT(ps.queue_occupancy_mean, 0.5);  // producers were always ahead
}

TEST(PipelineSession, TeardownWithBlockedProducersDoesNotDeadlock) {
  // The close-while-producer-blocked case: items are announced but never
  // consumed, so producers sit blocked on the full queue (or parked on the
  // window gate) when the session is resized and then destroyed. Both paths
  // must quiesce by draining, not deadlock; ASan's leak check covers the
  // drained-but-unconsumed items.
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;
  options.queue_capacity = 1;
  options.pool = &pool;
  {
    PipelineSession session(
        options,
        [](int64_t i) -> std::shared_ptr<void> { return std::make_shared<int64_t>(i); },
        [](void*, int64_t) {});
    session.Extend(50);
    // Wait for a producer to actually fill the queue (and block behind it).
    for (int spin = 0; spin < 2000 && session.queue_size() < 1; ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EXPECT_EQ(session.queue_size(), 1u);
    session.Resize(1);  // quiesce with a producer blocked mid-push
    session.Extend(10);
    // Destroy with 60 announced, 0 consumed.
  }
  SUCCEED();
}

// The ISSUE's randomized stress test: random producer delays and forced resizes
// at adversarial points — empty queue, full queue, and immediately after the
// last batch of a segment ("set") — asserting in-order delivery, no deadlock
// (the test completing at all), and bitwise-equal output vs the fixed-worker
// run. Runs under TSan in CI like the rest of this suite.
TEST(PipelineSession, StressRandomDelaysAndAdversarialResizes) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const int64_t n = 160;
    std::vector<uint64_t> expected;
    expected.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      expected.push_back(MixSeed(seed, static_cast<uint64_t>(i)));
    }

    PipelineSessionOptions options;
    options.workers = 3;
    options.queue_capacity = 2;
    options.pool = &pool;
    std::vector<uint64_t> got;
    Rng rng(seed * 7919);
    {
      PipelineSession session(
          options,
          [seed](int64_t i) -> std::shared_ptr<void> {
            // Deterministic per-index jitter; no shared RNG on worker threads.
            std::this_thread::sleep_for(std::chrono::microseconds(
                MixSeed(seed ^ 0xABCD, static_cast<uint64_t>(i)) % 300));
            return SeededItem(seed, i);
          },
          [&](void* item, int64_t) { got.push_back(*static_cast<uint64_t*>(item)); });

      // Adversarial point: resize before anything is announced (empty queue,
      // all workers parked on the gate).
      session.Resize(2);
      int64_t announced = 0;
      int64_t consumed = 0;
      while (consumed < n) {
        if (announced < n && (announced == consumed || rng.UniformInt(0, 2) == 0)) {
          const int64_t seg = std::min<int64_t>(n - announced, rng.UniformInt(1, 33));
          session.Extend(seg);
          announced += seg;
        }
        if (rng.UniformInt(0, 3) == 0 && announced - consumed >
                static_cast<int64_t>(options.queue_capacity) + session.workers()) {
          // Adversarial point: force the queue full (producers blocked mid-push),
          // then resize into the back-pressure.
          for (int spin = 0;
               spin < 5000 && session.queue_size() < options.queue_capacity; ++spin) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          session.Resize(static_cast<int>(rng.UniformInt(1, 5)));
        }
        const int64_t take =
            std::min<int64_t>(announced - consumed, rng.UniformInt(1, 41));
        session.Consume(take);
        consumed += take;
        if (rng.UniformInt(0, 2) == 0) {
          // Adversarial point: resize right after the last batch of a segment
          // (queue typically empty, reorder buffer possibly holding run-ahead).
          session.Resize(static_cast<int>(rng.UniformInt(1, 5)));
        }
      }
      EXPECT_GE(session.resize_count(), 1);
      EXPECT_EQ(session.consumed(), n);
    }
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// PipelineController decision rules: the efficiency hysteresis (rules 1-2) and
// its clamps, then the queue-depth refinement and the IO-bound hold.

PipelineControllerOptions ControllerOpts(int max_workers, int min_workers = 1) {
  PipelineControllerOptions options;
  options.max_workers = max_workers;
  options.min_workers = min_workers;
  options.par_eff_low = 0.4;
  options.par_eff_high = 0.85;
  // The raw-rule tests below disable the queue-decision cool-down so each window
  // exercises the rule itself; the QueueCooldown* tests cover the damping.
  options.queue_cooldown_windows = 0;
  return options;
}

ControllerSignals EffOnly(double par_eff) {
  ControllerSignals signals;
  signals.compute_parallel_efficiency = par_eff;
  return signals;
}

// Dead-band efficiency plus a queue reading; stall/io/window default to a
// stall-free, IO-free 1-second window.
ControllerSignals DeadBandQueue(double occupancy, double stall_seconds = 0.0,
                                double io_stall_seconds = 0.0) {
  ControllerSignals signals;
  signals.compute_parallel_efficiency = 0.6;
  signals.has_queue_signal = true;
  signals.queue_occupancy_mean = occupancy;
  signals.pipeline_stall_seconds = stall_seconds;
  signals.io_stall_seconds = io_stall_seconds;
  signals.window_seconds = 1.0;
  return signals;
}

TEST(PipelineController, ShrinksGrowsWithHysteresis) {
  PipelineController controller(ControllerOpts(4));
  EXPECT_EQ(controller.workers(), 4);                    // starts at max
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.20)), 3); // below low -> shrink
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.39)), 2);
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.60)), 2); // dead band -> hold
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.40)), 2); // thresholds exclusive
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.90)), 3); // above high -> grow
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.95)), 4);
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.99)), 4); // clamped at max
}

TEST(PipelineController, NeverShrinksBelowMinWorkers) {
  PipelineController controller(ControllerOpts(3, 2));
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.0)), 2);
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.0)), 2);
  // The queue-high shrink rule respects the same clamp.
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(1.0)), 2);
}

TEST(PipelineController, DisabledPinsAtConfiguredWorkers) {
  PipelineControllerOptions options = ControllerOpts(3);
  options.enabled = false;
  PipelineController controller(options);
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.0)), 3);
  EXPECT_EQ(controller.ObserveWindow(EffOnly(1.0)), 3);
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(1.0)), 3);
}

TEST(PipelineController, NonPipelinedStaysAtZeroWorkers) {
  PipelineController controller(ControllerOpts(0));
  EXPECT_EQ(controller.workers(), 0);
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.0)), 0);
  EXPECT_EQ(controller.ObserveWindow(EffOnly(1.0)), 0);
}

TEST(PipelineController, QueueHighShrinksInDeadBand) {
  // Occupancy pinned near capacity: producers are ahead of compute, so extra
  // samplers are wasted even though efficiency sits in the dead band.
  PipelineController controller(ControllerOpts(4));
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.90)), 3);
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.76)), 2);
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.75)), 2);  // threshold exclusive
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.50)), 2);  // mid band holds
}

TEST(PipelineController, QueueLowGrowsOnlyWithRealConsumerStalls) {
  PipelineController controller(ControllerOpts(4));
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.2)), 3);  // make room to grow
  // Near-empty queue but the consumer never stalled: compute kept up, hold.
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.05, /*stall=*/0.0)), 3);
  // Near-empty queue AND the consumer stalled 20% of the window: sampling is the
  // bottleneck, grow.
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.05, /*stall=*/0.2)), 4);
}

TEST(PipelineController, IoBoundWindowHolds) {
  PipelineController controller(ControllerOpts(4));
  // Occupancy says shrink, stalls say grow — but 60% of the window was unhidden
  // IO, which no worker split can fix: hold.
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.95, 0.0, /*io=*/0.6)), 4);
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.05, 0.3, /*io=*/0.6)), 4);
}

TEST(PipelineController, EfficiencyRulesDominateQueueSignal) {
  PipelineController controller(ControllerOpts(4));
  // Efficiency below the low threshold shrinks even when the queue reads empty
  // with heavy stalls (the grow case); above high grows even when the queue
  // reads full (the shrink case).
  ControllerSignals low = DeadBandQueue(0.05, /*stall=*/0.5);
  low.compute_parallel_efficiency = 0.1;
  EXPECT_EQ(controller.ObserveWindow(low), 3);
  ControllerSignals high = DeadBandQueue(0.95);
  high.compute_parallel_efficiency = 0.95;
  EXPECT_EQ(controller.ObserveWindow(high), 4);
}

TEST(PipelineController, QueueCooldownDampsShrinkGrowPingPong) {
  // On a host where neither split wins, high-occupancy and low-occupancy+stall
  // windows can alternate; without a cool-down the queue rules flip the worker
  // count every single window. The cool-down lets each move settle first.
  auto run = [](int cooldown_windows) {
    PipelineControllerOptions options = ControllerOpts(4, 1);
    options.queue_cooldown_windows = cooldown_windows;
    PipelineController controller(options);
    int changes = 0;
    int prev = controller.workers();
    for (int i = 0; i < 12; ++i) {
      // Adversarial alternation: shrink signal, then grow signal, repeat.
      const int next = controller.ObserveWindow(
          i % 2 == 0 ? DeadBandQueue(0.95) : DeadBandQueue(0.05, /*stall=*/0.3));
      if (next != prev) {
        ++changes;
      }
      prev = next;
    }
    return changes;
  };
  // Undamped, every window flips the decision (12 changes). With a 2-window
  // cool-down, at most every third window may act.
  EXPECT_EQ(run(0), 12);
  EXPECT_LE(run(2), 4);
  EXPECT_GE(run(2), 1);  // the rule still acts once the cool-down expires
}

TEST(PipelineController, QueueCooldownCountsDownAndReleases) {
  PipelineControllerOptions options = ControllerOpts(4, 1);
  options.queue_cooldown_windows = 2;
  PipelineController controller(options);
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.95)), 3);  // shrink, arm
  EXPECT_EQ(controller.queue_cooldown_remaining(), 2);
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.95)), 3);  // suppressed
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.95)), 3);  // suppressed
  EXPECT_EQ(controller.queue_cooldown_remaining(), 0);
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.95)), 2);  // released
}

TEST(PipelineController, CooldownDoesNotGateEfficiencyRules) {
  // Starved compute must shed workers immediately: the efficiency band keeps its
  // own hysteresis and ignores the queue-rule cool-down.
  PipelineControllerOptions options = ControllerOpts(4, 1);
  options.queue_cooldown_windows = 3;
  PipelineController controller(options);
  EXPECT_EQ(controller.ObserveWindow(DeadBandQueue(0.95)), 3);  // arm cool-down
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.1)), 2);         // not gated
  EXPECT_EQ(controller.ObserveWindow(EffOnly(0.95)), 3);        // not gated
}

TEST(PipelineController, RestoreStateClampsToConfiguredRange) {
  PipelineController controller(ControllerOpts(4, 2));
  controller.RestoreState(/*workers=*/1, /*cooldown_remaining=*/-3);
  EXPECT_EQ(controller.workers(), 2);
  EXPECT_EQ(controller.queue_cooldown_remaining(), 0);
  controller.RestoreState(/*workers=*/9, /*cooldown_remaining=*/1);
  EXPECT_EQ(controller.workers(), 4);
  EXPECT_EQ(controller.queue_cooldown_remaining(), 1);
}

}  // namespace
}  // namespace mariusgnn
