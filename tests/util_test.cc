// Tests for src/util: RNG, thread pool, binary IO, timers, check macros,
// and the build's instruction-set level.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "src/util/binary_io.h"
#include "src/util/compute.h"
#include "src/util/node_row_map.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "src/util/timer.h"
#include "src/util/vec.h"

#if defined(__x86_64__)
#include "cmake/host_x86_64_v3.h"
#endif
#include "tests/alloc_counter.h"
#include "tests/sampling_reference.h"

namespace mariusgnn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 13);
    EXPECT_GE(v, -5);
    EXPECT_LT(v, 13);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.UniformInt(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntBoundOne) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(1), 0u);
  }
}

TEST(Rng, ShuffleDegenerateSizes) {
  Rng rng(4);
  std::vector<int> empty;
  rng.Shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.Shuffle(one);
  EXPECT_EQ(one[0], 42);
}

TEST(Rng, UniformFloatInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.UniformFloat();
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(Rng, NormalHasReasonableMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be equal
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  PickScratch scratch;
  for (int64_t population : {10, 100, 10000}) {
    for (int64_t count : {1, 5, 9}) {
      auto s = rng.SampleWithoutReplacement(population, count, &scratch);
      ASSERT_EQ(static_cast<int64_t>(s.size()), count);
      std::set<int64_t> uniq(s.begin(), s.end());
      EXPECT_EQ(static_cast<int64_t>(uniq.size()), count);
      for (int64_t v : s) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, population);
      }
    }
  }
}

TEST(Rng, SampleWithoutReplacementAllWhenCountExceeds) {
  Rng rng(13);
  PickScratch scratch;
  auto s = rng.SampleWithoutReplacement(5, 10, &scratch);
  ASSERT_EQ(s.size(), 5u);
  std::sort(s.begin(), s.end());
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(s[static_cast<size_t>(i)], i);
  }
}

TEST(Rng, SampleWithoutReplacementUniformish) {
  // Each element of [0,20) should appear in roughly half of 10-element samples.
  Rng rng(17);
  PickScratch scratch;
  std::vector<int> hits(20, 0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    for (int64_t v : rng.SampleWithoutReplacement(20, 10, &scratch)) {
      ++hits[static_cast<size_t>(v)];
    }
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.5, 0.06);
  }
}

// One scratch reused across every draw (as a sampler reuses it across nodes)
// must give the hash-set reference's picks, in order, and leave the generator
// in the reference's state after each draw, on every branch: take-all, the
// dense partial Fisher–Yates and Floyd's sparse draw.
TEST(Rng, SampleWithoutReplacementMatchesHashReference) {
  Rng rng(23);
  Rng ref(23);
  PickScratch scratch;
  uint64_t got_state[4];
  uint64_t want_state[4];
  const int64_t populations[] = {0, 1, 2, 7, 30, 31, 90, 1000, 70000};
  const int64_t counts[] = {0, 1, 3, 10, 30, 33, 500};
  for (int round = 0; round < 3; ++round) {
    for (int64_t population : populations) {
      for (int64_t count : counts) {
        const std::vector<int64_t> want = RefSampleWithoutReplacement(ref, population, count);
        const std::vector<int64_t>& got =
            rng.SampleWithoutReplacement(population, count, &scratch);
        ASSERT_EQ(got, want) << "population " << population << " count " << count;
        rng.SaveState(got_state);
        ref.SaveState(want_state);
        for (int w = 0; w < 4; ++w) {
          ASSERT_EQ(got_state[w], want_state[w]) << "population " << population;
        }
      }
    }
  }
}

TEST(NodeRowMap, GrowthKeepsFirstOccurrenceRows) {
  // Starts at the 16-slot minimum and grows to 2^17 slots (2^16 keys at load
  // 1/2); every key keeps the row of its first Emplace through every rehash.
  NodeRowMap map;
  EXPECT_EQ(map.capacity(), 16);
  const int64_t n = int64_t{1} << 16;
  auto key_of = [](int64_t i) { return (i * 7919) % 1000003; };  // distinct for i < n
  for (int64_t i = 0; i < n; ++i) {
    const auto [row, inserted] = map.Emplace(key_of(i), i);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(row, i);
    // A repeated key keeps its first row.
    const auto [again, reinserted] = map.Emplace(key_of(i / 2), n + i);
    ASSERT_FALSE(reinserted);
    ASSERT_EQ(again, i / 2);
    ASSERT_LE(2 * map.size(), map.capacity());
  }
  EXPECT_EQ(map.size(), n);
  EXPECT_EQ(map.capacity(), 2 * n);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(map.Find(key_of(i)), i);
  }
}

TEST(NodeRowMap, FindReturnsMinusOneForAbsentKeys) {
  NodeRowMap map(4);
  EXPECT_EQ(map.Find(0), -1);
  EXPECT_EQ(map.Find(12345), -1);
  map.Emplace(5, 0);
  map.Emplace(21, 1);
  EXPECT_EQ(map.Find(5), 0);
  EXPECT_EQ(map.Find(21), 1);
  for (int64_t k = 0; k < 1000; ++k) {
    if (k != 5 && k != 21) {
      ASSERT_EQ(map.Find(k), -1) << k;
    }
  }
  map.Reset(4);
  EXPECT_EQ(map.size(), 0);
  EXPECT_EQ(map.Find(5), -1);
}

TEST(NodeRowMap, ExtremeAndStridedKeysResolve) {
  NodeRowMap map;
  const int64_t max_key = std::numeric_limits<int64_t>::max();
  map.Emplace(0, 10);
  map.Emplace(max_key, 11);
  // Multiples of 2^32 differ only in their high word; a hash of the low bits
  // alone would put them all in one slot.
  for (int64_t i = 1; i <= 1000; ++i) {
    map.Emplace(i << 32, 100 + i);
  }
  EXPECT_EQ(map.Find(0), 10);
  EXPECT_EQ(map.Find(max_key), 11);
  for (int64_t i = 1; i <= 1000; ++i) {
    ASSERT_EQ(map.Find(i << 32), 100 + i);
  }
  EXPECT_EQ(map.Find(int64_t{1001} << 32), -1);
  EXPECT_EQ(map.Find(max_key - 1), -1);
  EXPECT_EQ(map.size(), 1002);
}

TEST(NodeRowMapDeathTest, NegativeKeyTripsDcheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "MG_DCHECK compiles out under NDEBUG";
#else
  NodeRowMap map;
  EXPECT_DEATH(map.Emplace(-1, 0), "key >= 0");
  EXPECT_DEATH(map.Find(-7), "key >= 0");
#endif
}

TEST(ComputeContext, ForEachChunkOrderedFoldsInAscendingOrder) {
  // The combine callback must observe chunks 0,1,2,... regardless of the order the
  // bodies finished in — the determinism contract of every ordered reduction.
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    ComputeContext ctx;
    ctx.pool = &pool;
    const int64_t n = 1000, grain = 64;
    const int64_t chunks = ComputeChunkCount(n, grain);
    std::vector<int64_t> sums(static_cast<size_t>(chunks), 0);
    std::vector<int64_t> combine_order;
    ForEachChunkOrdered(
        &ctx, n, grain,
        [&](int64_t chunk, int64_t begin, int64_t end) {
          int64_t s = 0;
          for (int64_t i = begin; i < end; ++i) {
            s += i;
          }
          sums[static_cast<size_t>(chunk)] = s;
        },
        [&](int64_t chunk) { combine_order.push_back(chunk); });
    ASSERT_EQ(static_cast<int64_t>(combine_order.size()), chunks);
    for (int64_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(combine_order[static_cast<size_t>(c)], c);
    }
    EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), int64_t{0}), 999 * 1000 / 2);
  }
}

// The serial path folds each chunk as soon as its body ends: body(0), combine(0),
// body(1), ... for a null context and a 1-thread pool alike.
TEST(ComputeContext, SerialOrderedRunsEachCombineAfterItsBody) {
  ThreadPool pool(1);
  ComputeContext one_thread;
  one_thread.pool = &pool;
  for (const ComputeContext* ctx : {static_cast<const ComputeContext*>(nullptr),
                                    static_cast<const ComputeContext*>(&one_thread)}) {
    const int64_t n = 1000, grain = 64;
    const int64_t chunks = ComputeChunkCount(n, grain);
    std::vector<std::string> events;
    ForEachChunkOrdered(
        ctx, n, grain,
        [&](int64_t chunk, int64_t, int64_t) {
          events.push_back("body " + std::to_string(chunk));
        },
        [&](int64_t chunk) { events.push_back("combine " + std::to_string(chunk)); });
    std::vector<std::string> want;
    for (int64_t c = 0; c < chunks; ++c) {
      want.push_back("body " + std::to_string(c));
      want.push_back("combine " + std::to_string(c));
    }
    EXPECT_EQ(events, want) << (ctx == nullptr ? "null context" : "1-thread pool");
  }
}

// A region passes its body and combine by reference, so a serial region whose
// callables capture far more than a std::function keeps in place (here 64
// bytes each) allocates nothing, for a null context and a 1-thread pool alike.
TEST(ComputeContext, SerialOrderedRegionAllocatesNothing) {
  ThreadPool pool(1);
  ComputeContext one_thread;
  one_thread.pool = &pool;
  int64_t sums[8] = {};
  int64_t folded[8] = {};
  const int64_t n = 1000, grain = 64;
  for (const ComputeContext* ctx : {static_cast<const ComputeContext*>(nullptr),
                                    static_cast<const ComputeContext*>(&one_thread)}) {
    int64_t total = 0;
    const auto region = [&, sums_by_value = std::array<int64_t, 8>{}] {
      ForEachChunkOrdered(
          ctx, n, grain,
          [&, sums_by_value](int64_t chunk, int64_t begin, int64_t end) {
            sums[chunk % 8] = end - begin + sums_by_value[0];
          },
          [&, folded_by_value = sums_by_value](int64_t chunk) {
            total += sums[chunk % 8] + folded_by_value[0];
            folded[chunk % 8] = total;
          });
    };
    region();  // warm
    total = 0;
    EXPECT_EQ(AllocationsDuring(region), 0)
        << (ctx == nullptr ? "null context" : "1-thread pool");
    EXPECT_EQ(total, n);
  }
}

// LaneMax against the sequential std::max fold it replaces, bit for bit, over
// arrays drawn from NaN, +-inf, +-0 and ordinary values at every length from 1 to
// 3 vectors + 1. The draws favour ties between +0.0f and -0.0f, where only the
// position of the first maximum decides the bits.
TEST(LaneMax, MatchesSequentialMaxFoldBitwise) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> pools = {
      {nan, inf, -inf, 0.0f, -0.0f, 1.5f, -2.0f, 3.25f},
      {0.0f, -0.0f, -1.0f, nan, -inf},
      {-0.0f, 0.0f},
      {nan, -inf, -3.0f},
  };
  Rng rng(2024);
  for (int64_t n = 1; n <= 3 * kW + 1; ++n) {
    for (const std::vector<float>& pool : pools) {
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<float> x(static_cast<size_t>(n));
        for (float& v : x) {
          v = pool[rng.UniformInt(pool.size())];
        }
        float want = x[0];
        for (float v : x) {
          want = std::max(want, v);
        }
        const float got = LaneMax(x.data(), n);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
            << "n=" << n << " trial=" << trial << " got " << got << " want " << want;
      }
    }
  }
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 50);
}

TEST(File, ReadWriteRoundTrip) {
  const std::string path = TempPath("util_test_file");
  {
    File f(path, /*truncate=*/true);
    const char data[] = "hello mariusgnn";
    f.WriteAt(data, sizeof(data), 100);
    EXPECT_EQ(f.Size(), 100 + sizeof(data));
    char back[sizeof(data)];
    f.ReadAt(back, sizeof(data), 100);
    EXPECT_STREQ(back, "hello mariusgnn");
  }
  ::remove(path.c_str());
}

TEST(File, VectorRoundTrip) {
  const std::string path = TempPath("util_test_vec");
  std::vector<int64_t> v = {1, -2, 3, 1LL << 40};
  WriteVector(path, v);
  EXPECT_EQ(ReadVector<int64_t>(path), v);
  WriteVector(path, std::vector<int64_t>{});
  EXPECT_TRUE(ReadVector<int64_t>(path).empty());
  ::remove(path.c_str());
}

TEST(File, ReadPastEofReportsEofNotErrno) {
  // EOF is not an errno condition: the old code printed whatever strerror(errno)
  // happened to hold. The message must name the short read instead.
  const std::string path = TempPath("util_test_eof");
  File f(path, /*truncate=*/true);
  const char data[] = "abc";
  f.WriteAt(data, 3, 0);
  char buf[16];
  EXPECT_DEATH(f.ReadAt(buf, sizeof(buf), 0), "unexpected end of file");
  ::remove(path.c_str());
}

TEST(File, TryReadAtReturnsFalseInsteadOfAborting) {
  // The non-aborting read used on every untrusted-load path (checkpoints,
  // serving snapshots): a short read comes back as (false, message), leaving
  // the abort-on-error semantics to the ReadAt wrapper.
  const std::string path = TempPath("util_test_tryread");
  File f(path, /*truncate=*/true);
  const char data[] = "abcdef";
  f.WriteAt(data, 6, 0);
  char buf[16];
  std::string error;
  EXPECT_TRUE(f.TryReadAt(buf, 6, 0, &error)) << error;
  EXPECT_EQ(std::string(buf, 6), "abcdef");
  EXPECT_FALSE(f.TryReadAt(buf, sizeof(buf), 0, &error));
  EXPECT_NE(error.find("unexpected end of file"), std::string::npos) << error;
  EXPECT_FALSE(f.TryReadAt(buf, 1, 100, &error));  // fully past EOF
  ::remove(path.c_str());
}

TEST(File, ReadVectorRejectsCorruptCountBeforeAllocating) {
  // An on-disk element count far beyond the file size must fail validation, not
  // attempt a multi-GB allocation.
  const std::string path = TempPath("util_test_corrupt_vec");
  {
    File f(path, /*truncate=*/true);
    const uint64_t bogus_count = 1ULL << 40;  // ~8 TiB of int64 payload
    f.WriteAt(&bogus_count, sizeof(bogus_count), 0);
  }
  EXPECT_DEATH(ReadVector<int64_t>(path), "element count exceeds file size");
  ::remove(path.c_str());
}

TEST(AtomicFile, CommitPublishesUncommittedDiscards) {
  const std::string path = TempPath("util_test_atomic");
  {
    AtomicFile f(path);  // destroyed without Commit: simulated mid-save crash
    const int value = 41;
    f.WriteAt(&value, sizeof(value), 0);
  }
  {
    // Neither the final path nor tmp debris survives an uncommitted writer.
    File probe(path);
    EXPECT_EQ(probe.Size(), 0u);  // File() creates empty; nothing was published
  }
  ::remove(path.c_str());
  {
    AtomicFile f(path);
    const int value = 42;
    f.WriteAt(&value, sizeof(value), 0);
    f.Commit();
  }
  File f(path);
  int back = 0;
  f.ReadAt(&back, sizeof(back), 0);
  EXPECT_EQ(back, 42);
  ::remove(path.c_str());
}

TEST(AtomicFile, CommitReplacesPreviousContentWholesale) {
  // The rename is all-or-nothing: a shorter new file fully replaces a longer old
  // one (no tail of stale bytes, as in-place truncate-less writes would leave).
  const std::string path = TempPath("util_test_atomic_replace");
  {
    AtomicFile f(path);
    const char big[64] = "old old old";
    f.WriteAt(big, sizeof(big), 0);
    f.Commit();
  }
  {
    AtomicFile f(path);
    const char small[4] = "new";
    f.WriteAt(small, sizeof(small), 0);
    f.Commit();
  }
  File f(path);
  EXPECT_EQ(f.Size(), 4u);
  ::remove(path.c_str());
}

TEST(VirtualClock, Accumulates) {
  VirtualClock clock;
  clock.Advance(1.5);
  clock.Advance(0.25);
  EXPECT_DOUBLE_EQ(clock.Seconds(), 1.75);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.Seconds(), 0.0);
}

TEST(WallTimer, MeasuresElapsed) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(timer.Millis(), 5.0);
}

// The configure-time probe chose the level this host supports: a probe that
// silently fell back to baseline would lose the 8-wide lanes, and no other test
// would notice.
TEST(Build, TargetMatchesHostProbe) {
  const std::string isa = MGNN_TARGET_ISA;
  if (isa == "flags") {
    GTEST_SKIP() << "the level came from the compiler flags, not the probe";
  }
#if defined(__x86_64__)
  if (isa == "x86-64-v3") {
#if !defined(__AVX2__)
    ADD_FAILURE() << "MGNN_TARGET_ISA is x86-64-v3 but __AVX2__ is not defined";
#endif
    EXPECT_TRUE(HostSupportsX8664V3()) << "built for x86-64-v3 on a host without it";
  } else {
    ASSERT_EQ(isa, "x86-64");
    EXPECT_FALSE(HostSupportsX8664V3()) << "the probe fell back to baseline on a v3 host";
  }
#else
  FAIL() << "MGNN_TARGET_ISA is " << isa << " on a target that is not x86-64";
#endif
}

}  // namespace
}  // namespace mariusgnn
