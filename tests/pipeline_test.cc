// Tests for the pipeline layer: PipelineSession's in-order delivery, determinism,
// look-ahead window, consumer-side production, segmented runs and teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/pipeline/training_pipeline.h"
#include "src/util/compute.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace mariusgnn {
namespace {

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
      PipelineSessionOptions{0, nullptr}, 10,
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
  // block on the batch-window gate during compute, so compute helper tasks
  // submitted to the same pool may never run. ForEachChunk must make progress
  // through the calling thread alone — and still produce the same bits.
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;  // saturate the pool
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

// Spins until `count` reaches `target`, for at most ten seconds (the caller's
// expectations then report a window that never filled).
void WaitUntilAtLeast(const std::atomic<int64_t>& count, int64_t target) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() < target && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

TEST(PipelineSession, ProducersNeverRunMoreThanWindowAhead) {
  // The look-ahead bound: index i is only ever built while i < consumed + window,
  // so at most `window` batches are alive at once. The consumer stalls once per
  // run until the window is full, so the bound is also reached, not just kept.
  ThreadPool pool(4);
  for (int workers = 1; workers <= 4; ++workers) {
    PipelineSessionOptions options;
    options.workers = workers;
    options.pool = &pool;
    const int64_t window = kPipelineLookahead + workers;
    const int64_t n = 120;
    const int64_t full_at = 37;  // the consumed index at which the window fills
    std::atomic<int64_t> consumed{0};
    std::atomic<int64_t> produced{0};
    std::atomic<int64_t> high_water{0};
    std::vector<int64_t> got;
    PipelineSession session(
        options,
        [&](int64_t i) -> std::shared_ptr<void> {
          const int64_t ahead = i - consumed.load();
          int64_t seen = high_water.load();
          while (ahead > seen && !high_water.compare_exchange_weak(seen, ahead)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds((i * 13) % 200));
          produced.fetch_add(1);
          return std::make_shared<int64_t>(i);
        },
        [&](void* item, int64_t i) {
          if (i == full_at) {
            WaitUntilAtLeast(produced, full_at + window);
          }
          got.push_back(*static_cast<int64_t*>(item));
          consumed.fetch_add(1);
        });
    session.RunSegment(50);
    session.RunSegment(n - 50);
    EXPECT_EQ(high_water.load(), window - 1) << "workers " << workers;
    ASSERT_EQ(static_cast<int64_t>(got.size()), n);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)], i);
    }
  }
}

TEST(PipelineSession, ConsumerBuildsUnclaimedBatchesItself) {
  // Caller participation: the consumer builds any batch no worker has claimed.
  // Every pool thread is held by a blocker, so the session's workers never start
  // and the consumer must build every batch itself — the consumed stream is the
  // same as with free workers, and nothing waits on a worker that never comes.
  auto produce = [](int64_t i) { return MixSeed(42, static_cast<uint64_t>(i)); };
  std::vector<uint64_t> expected;
  for (int64_t i = 0; i < 40; ++i) {
    expected.push_back(produce(i));
  }
  for (int workers : {0, 1, 2, 4}) {
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    for (size_t t = 0; t < pool.num_threads(); ++t) {
      pool.Submit([&release] {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      });
    }
    PipelineSessionOptions options;
    options.workers = workers;
    options.pool = &pool;
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int64_t> on_caller{0};
    std::vector<uint64_t> got;
    {
      PipelineSession session(
          options,
          [&](int64_t i) -> std::shared_ptr<void> {
            if (std::this_thread::get_id() == caller) {
              on_caller.fetch_add(1);
            }
            return std::make_shared<uint64_t>(produce(i));
          },
          [&](void* item, int64_t) { got.push_back(*static_cast<uint64_t*>(item)); });
      for (int64_t seg : {13, 1, 26}) {
        const PipelineStats ps = session.RunSegment(seg);
        EXPECT_DOUBLE_EQ(ps.stall_seconds, 0.0) << "workers " << workers;
      }
      // Let the workers start (and park at the gate) so teardown can join them.
      release.store(true);
    }
    EXPECT_EQ(on_caller.load(), 40) << "workers " << workers;
    EXPECT_EQ(got, expected) << "workers " << workers;
  }
}

TEST(PipelineSession, TeardownWithBlockedProducersDoesNotDeadlock) {
  // Teardown mid-segment: the consumer throws at the first batch, leaving 60
  // items announced, none consumed, a full window of built batches in the slots
  // and the producers parked on the gate (or still depositing their last batch).
  // Teardown must release them, not deadlock; ASan's leak check covers the
  // built-but-unconsumed batches.
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;
  options.pool = &pool;
  const int64_t window = kPipelineLookahead + options.workers;
  std::atomic<int64_t> produced{0};
  {
    PipelineSession session(
        options,
        [&produced](int64_t i) -> std::shared_ptr<void> {
          auto item = std::make_shared<int64_t>(i);
          produced.fetch_add(1);
          return item;
        },
        [&](void*, int64_t) {
          WaitUntilAtLeast(produced, window);
          throw std::runtime_error("consumer stopped");
        });
    EXPECT_THROW(session.RunSegment(60), std::runtime_error);
    EXPECT_EQ(produced.load(), window);
  }
  EXPECT_EQ(produced.load(), window);
}

// Randomized stress test: random producer delays, random segment sizes, and
// consumer pauses that last until the producers have filled the window, at every
// worker count from 1 to 4 — asserting in-order delivery, no deadlock (the test
// completing at all), and bitwise-equal output vs the expected stream. Runs under
// TSan in CI like the rest of this suite.
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
      options.pool = &pool;
      const int64_t window = kPipelineLookahead + workers;
      std::vector<uint64_t> got;
      std::atomic<int64_t> produced{0};
      int64_t announced = 0;
      Rng rng(seed * 7919 + static_cast<uint64_t>(workers));
      {
        PipelineSession session(
            options,
            [seed, &produced](int64_t i) -> std::shared_ptr<void> {
              // Deterministic per-index jitter; no shared RNG on worker threads.
              std::this_thread::sleep_for(std::chrono::microseconds(
                  MixSeed(seed ^ 0xABCD, static_cast<uint64_t>(i)) % 300));
              std::shared_ptr<void> item = SeededItem(seed, i);
              produced.fetch_add(1);
              return item;
            },
            [&](void* item, int64_t i) {
              if (rng.UniformInt(0, 7) == 0) {
                // Adversarial point: let the producers fill the window (and park
                // on the gate) before the consumer resumes.
                WaitUntilAtLeast(produced, std::min(announced, i + window));
              }
              got.push_back(*static_cast<uint64_t*>(item));
            });
        while (announced < n) {
          const int64_t seg = std::min<int64_t>(n - announced, rng.UniformInt(1, 41));
          announced += seg;
          session.RunSegment(seg);
        }
        EXPECT_EQ(session.announced(), n);
      }
      ASSERT_EQ(got.size(), expected.size()) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(got, expected) << "seed " << seed << " workers " << workers;
    }
  }
}
}  // namespace
}  // namespace mariusgnn
