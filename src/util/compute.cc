#include "src/util/compute.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "src/util/check.h"
#include "src/util/timer.h"

namespace mariusgnn {

int64_t ComputeChunkCount(int64_t n, int64_t grain) {
  MG_DCHECK(grain > 0);
  return n <= 0 ? 0 : (n + grain - 1) / grain;
}

namespace {

// Shared claim/completion state of one parallel region. Held by shared_ptr so a
// helper task that only runs after the region finished (its pool slot was busy)
// still finds valid state, sees no chunks left, and returns.
struct RegionState {
  int64_t n = 0;
  int64_t grain = 0;
  int64_t chunks = 0;
  const std::function<void(int64_t, int64_t, int64_t)>* body = nullptr;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> busy_nanos{0};
  std::atomic<int64_t> participants{0};  // threads that executed >= 1 chunk
  bool record_time = false;
  std::mutex mu;
  std::condition_variable cv;
  int64_t done = 0;  // guarded by mu
};

// Claims chunks until none remain. Runs on the caller and on any pool worker that
// picks up a helper task; which thread runs which chunk never affects results
// because chunk boundaries and combine order are fixed elsewhere.
void DrainChunks(RegionState& state) {
  int64_t completed = 0;
  for (;;) {
    const int64_t c = state.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= state.chunks) {
      break;
    }
    const int64_t begin = c * state.grain;
    const int64_t end = std::min(begin + state.grain, state.n);
    if (state.record_time) {
      WallTimer timer;
      (*state.body)(c, begin, end);
      state.busy_nanos.fetch_add(static_cast<int64_t>(timer.Seconds() * 1e9),
                                 std::memory_order_relaxed);
    } else {
      (*state.body)(c, begin, end);
    }
    ++completed;
  }
  if (completed > 0) {
    state.participants.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(state.mu);
    state.done += completed;
    if (state.done == state.chunks) {
      state.cv.notify_all();
    }
  }
}

}  // namespace

void ForEachChunk(const ComputeContext* ctx, int64_t n, int64_t grain,
                  const std::function<void(int64_t, int64_t, int64_t)>& body) {
  const int64_t chunks = ComputeChunkCount(n, grain);
  if (chunks == 0) {
    return;
  }
  ThreadPool* pool = ctx != nullptr ? ctx->pool : nullptr;
  ComputeStats* stats = ctx != nullptr ? ctx->stats : nullptr;
  // Helper tasks only make sense if a worker can actually pick them up: a pool
  // saturated by epoch-long occupants (pipeline batch-construction workers, possibly
  // blocked on the window gate) would just accumulate dead closures all epoch.
  // IdleThreads takes the pool mutex, so consult it only after the lock-free
  // disqualifiers — single-chunk regions on the consumer hot path stay lock-free.
  // Execution strategy never affects results — only which threads run the chunks.
  const bool lockfree_serial = pool == nullptr || pool->num_threads() <= 1 ||
                               chunks <= 1 || pool->OnWorkerThread();
  const int64_t idle =
      lockfree_serial ? 0 : static_cast<int64_t>(pool->IdleThreads());
  // Serial path: same chunks, ascending order, so bits match the parallel path.
  // OnWorkerThread guards nested use from a pool task (a leaf region there).
  // The clock is read only when a stats sink is set.
  if (lockfree_serial || idle == 0) {
    const auto run_serial = [&] {
      for (int64_t c = 0; c < chunks; ++c) {
        body(c, c * grain, std::min((c + 1) * grain, n));
      }
    };
    if (stats == nullptr) {
      run_serial();
      return;
    }
    WallTimer timer;
    run_serial();
    const double s = timer.Seconds();
    stats->busy_seconds += s;
    stats->capacity_seconds += s;  // one executor: capacity == busy
    return;
  }

  WallTimer wall;
  auto state = std::make_shared<RegionState>();
  state->n = n;
  state->grain = grain;
  state->chunks = chunks;
  state->body = &body;
  state->record_time = stats != nullptr;
  const int64_t helpers = std::min(idle, chunks - 1);
  for (int64_t h = 0; h < helpers; ++h) {
    pool->Submit([state] { DrainChunks(*state); });
  }
  DrainChunks(*state);
  {
    // Only chunks claimed by a running worker remain; they cannot be blocked on
    // the pipeline (they are executing kernel bodies), so this wait terminates.
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done == state->chunks; });
  }
  // `body` points at the caller's stack; detach it so a late-scheduled helper
  // task (state outlives this frame via shared_ptr) cannot touch freed memory.
  // next is already >= chunks for every late task, so body is never read again,
  // but clearing it makes any regression crash deterministically.
  state->body = nullptr;
  if (stats != nullptr) {
    const double wall_s = wall.Seconds();
    stats->busy_seconds += static_cast<double>(state->busy_nanos.load()) * 1e-9;
    // Capacity charges only threads that actually executed a chunk: a helper that
    // was queued but never ran (the caller drained everything first) enlisted no
    // capacity, so short regions still report honest efficiency.
    const int64_t executors = std::max<int64_t>(1, state->participants.load());
    stats->capacity_seconds += wall_s * static_cast<double>(executors);
  }
}

void ForEachChunkOrdered(const ComputeContext* ctx, int64_t n, int64_t grain,
                         const std::function<void(int64_t, int64_t, int64_t)>& body,
                         const std::function<void(int64_t)>& combine) {
  const int64_t chunks = ComputeChunkCount(n, grain);
  if (chunks == 0) {
    return;
  }
  ForEachChunk(ctx, n, grain, body);
  // Ascending-order fold on the calling thread: the accumulator sees partials in
  // the same sequence for every pool size. combine(c) touches only partial c and
  // the shared accumulator, so interleaving with other chunks' bodies (which the
  // serial path above effectively does not do — bodies all finished) is moot.
  for (int64_t c = 0; c < chunks; ++c) {
    combine(c);
  }
}

}  // namespace mariusgnn
