// Tests for the pipeline layer: BoundedQueue under multi-producer/multi-consumer
// load, and PipelineSession's order-preserving reassembly, determinism, segmented
// runs and teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

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

TEST(BoundedQueue, CapacityOnePingPongStats) {
  // Capacity 1 forces strict producer/consumer alternation: every push blocks
  // until the previous item was popped, the hardest case for the backpressure
  // path.
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
  EXPECT_EQ(q.Size(), 0u);
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
  EXPECT_EQ(q.Size(), 0u);  // drained at the end
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
// PipelineSession: segmented runs. The consumed sequence is always the full
// announced stream in index order, however the stream is cut into segments.

std::shared_ptr<void> SeededItem(uint64_t seed, int64_t i) {
  return std::make_shared<uint64_t>(MixSeed(seed, static_cast<uint64_t>(i)));
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

TEST(PipelineSession, TeardownWithBlockedProducersDoesNotDeadlock) {
  // The close-while-producer-blocked case: items are announced but never
  // consumed, so producers sit blocked on the full queue (or parked on the
  // window gate) when the session is destroyed. Teardown must release both,
  // not deadlock; ASan's leak check covers the queued-but-unconsumed items.
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
    session.Extend(10);
    // Destroy with 60 announced, 0 consumed, and a producer blocked mid-push.
  }
  SUCCEED();
}

// Randomized stress test: random producer delays, random segment and consume
// sizes, and consumes that start only once producers are blocked on a full
// queue, at every worker count from 1 to 4 — asserting in-order delivery, no
// deadlock (the test completing at all), and bitwise-equal output vs the
// expected stream. Runs under TSan in CI like the rest of this suite.
TEST(PipelineSession, StressRandomDelaysAndSegmentsAtFixedWorkerCounts) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const int64_t n = 160;
    std::vector<uint64_t> expected;
    expected.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      expected.push_back(MixSeed(seed, static_cast<uint64_t>(i)));
    }

    for (int workers = 1; workers <= 4; ++workers) {
      PipelineSessionOptions options;
      options.workers = workers;
      options.queue_capacity = 2;
      options.pool = &pool;
      std::vector<uint64_t> got;
      Rng rng(seed * 7919 + static_cast<uint64_t>(workers));
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

        int64_t announced = 0;
        int64_t consumed = 0;
        while (consumed < n) {
          if (announced < n && (announced == consumed || rng.UniformInt(0, 2) == 0)) {
            const int64_t seg = std::min<int64_t>(n - announced, rng.UniformInt(1, 33));
            session.Extend(seg);
            announced += seg;
          }
          if (rng.UniformInt(0, 3) == 0 && announced - consumed >
                  static_cast<int64_t>(options.queue_capacity) + workers) {
            // Adversarial point: let the queue fill (producers blocked mid-push)
            // before the consumer resumes.
            for (int spin = 0;
                 spin < 5000 && session.queue_size() < options.queue_capacity; ++spin) {
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
          }
          const int64_t take =
              std::min<int64_t>(announced - consumed, rng.UniformInt(1, 41));
          session.Consume(take);
          consumed += take;
        }
        EXPECT_EQ(session.consumed(), n);
      }
      ASSERT_EQ(got.size(), expected.size()) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(got, expected) << "seed " << seed << " workers " << workers;
    }
  }
}

}  // namespace
}  // namespace mariusgnn
