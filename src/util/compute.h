// Deterministic parallel-compute substrate for the stage-3 kernels.
//
// The training pipeline overlaps sampling (stage 1) and partition IO with compute
// (stage 3), but the compute stage itself — forward/backward over the GNN layers,
// ranking-loss scoring, and the sparse Adagrad update — must also saturate the CPU
// for the pipeline to be compute-bound in the paper's sense. ComputeContext carries
// the shared ThreadPool handle from the trainers down into the kernels.
//
// Determinism contract (mirrors the pipeline's): results are bitwise-identical for
// any pool size, including no pool at all. Two rules enforce this:
//  1. Work is split into FIXED chunks whose boundaries depend only on the element
//     count and a compile-time grain constant — never on the number of workers.
//  2. Any cross-chunk accumulation (loss sums, shared-parameter gradients) is
//     reduced strictly in ascending chunk order on the calling thread
//     (ForEachChunkOrdered). No atomics on floats, no scheduling-dependent sums.
// A kernel built on these helpers computes the same bits whether chunks run on 0,
// 1, or 16 extra threads, because the per-chunk arithmetic and the combine order
// are both fixed functions of the input shape.
//
// Deadlock safety: pipeline workers can block on the batch-window gate *while
// holding pool threads* during stage-3 compute. The helpers therefore never make
// the caller wait on an unclaimed chunk: the calling thread claims and executes
// chunks itself, and only waits for chunks already claimed by a pool worker
// (which is by definition running, not blocked).
#ifndef SRC_UTIL_COMPUTE_H_
#define SRC_UTIL_COMPUTE_H_

#include <cstdint>
#include <functional>

#include "src/util/threadpool.h"

namespace mariusgnn {

// Fixed chunk grains. These are part of each kernel's definition: changing one
// changes reduction order (and therefore bits), so they are compile-time constants
// shared by every execution mode rather than per-context knobs.
inline constexpr int64_t kComputeGrainRows = 64;    // row-chunked matrix kernels
inline constexpr int64_t kComputeGrainElems = 8192; // flat elementwise kernels
inline constexpr int64_t kComputeGrainEdges = 128;  // per-positive-edge decoder loss
// Pure candidate scoring does ~dim work per item (vs (negatives+1) x dim for the
// loss kernel), so it needs a proportionally coarser grain to be worth fanning out.
inline constexpr int64_t kComputeGrainCandidates = 1024;
// Scatter-reduce positions (ScatterAddRows and the Gather* backward kernels): each
// destination row folds one partial per chunk of this many positions that holds
// any of its sources, in ascending chunk order. The chunks are rows of the fold,
// not units of work (the kernels run over destination rows at kComputeGrainRows),
// so this grain fixes bits only.
inline constexpr int64_t kComputeGrainScatterRows = 512;

// Aggregate counters for the parallel compute regions of one epoch. No trainer
// records them; they stay only because benchmark/replay.cc names this type and
// ComputeContext::stats.
struct ComputeStats {
  double busy_seconds = 0.0;      // summed per-chunk execution time across threads
  // Sum over regions of (region wall x threads that actually executed >= 1 of its
  // chunks; 1 for regions that ran serially). The honest denominator for
  // efficiency: a small kernel that never went parallel — or whose queued helpers
  // never got a chunk — contributes capacity == busy, not 8x its wall time.
  double capacity_seconds = 0.0;

  void Reset() { *this = ComputeStats(); }

  // busy / capacity: 1.0 means every region fully used the threads it enlisted.
  double ParallelEfficiency() const {
    return capacity_seconds > 0.0 ? busy_seconds / capacity_seconds : 1.0;
  }
};

// Handle the trainers thread through encoder/decoder/optimizer/storage alongside
// the pipeline config. Null pool (or a 1-thread pool) runs every chunk on the
// calling thread — same chunks, same order, same bits.
struct ComputeContext {
  ThreadPool* pool = nullptr;    // shared pool; nullptr = serial execution
  ComputeStats* stats = nullptr; // optional timing sink (single consumer thread)
};

// Number of fixed chunks for n elements at the given grain (0 when n <= 0).
int64_t ComputeChunkCount(int64_t n, int64_t grain);

// Runs body(chunk, begin, end) for every fixed chunk of [0, n). Chunks may execute
// concurrently; bodies must write disjoint memory. `ctx` may be null (serial).
void ForEachChunk(const ComputeContext* ctx, int64_t n, int64_t grain,
                  const std::function<void(int64_t, int64_t, int64_t)>& body);

// Runs body over all chunks (possibly in parallel), then combine(chunk) strictly in
// ascending chunk order on the calling thread. Use for kernels with cross-chunk
// accumulators: body writes a per-chunk partial, combine folds it in fixed order.
void ForEachChunkOrdered(const ComputeContext* ctx, int64_t n, int64_t grain,
                         const std::function<void(int64_t, int64_t, int64_t)>& body,
                         const std::function<void(int64_t)>& combine);

}  // namespace mariusgnn

#endif  // SRC_UTIL_COMPUTE_H_
