// Training configuration and per-epoch statistics shared by both trainers.
//
// The knob list is grouped into sub-structs by subsystem — StorageOptions
// (partition buffer + IO engine), PipelineOptions (async pipeline + compute
// parallelism), CheckpointOptions (crash-safe snapshots) —
// so callers configure one subsystem at a time and new knobs land next to their
// neighbors.
#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/gradient_exchange.h"
#include "src/core/model.h"
#include "src/graph/neighbor_index.h"
#include "src/nn/encoder.h"
#include "src/pipeline/training_pipeline.h"
#include "src/storage/disk.h"
#include "src/storage/partition_buffer.h"
#include "src/util/compute.h"

namespace mariusgnn {

// Out-of-core embedding storage: partitioning, buffer replacement, and the
// batched IO engine underneath it (src/storage/).
struct StorageOptions {
  bool use_disk = false;
  int32_t num_physical = 1;    // p
  int32_t num_logical = 1;     // l (COMET)
  int32_t buffer_capacity = 1; // c
  std::string policy = "comet";  // "comet" or "beta" (link prediction)
  bool comet_randomize_grouping = true;   // ablation knob (Section 5.1, mechanism 1)
  bool comet_deferred_assignment = true;  // ablation knob (Section 5.1, mechanism 2)
  DiskModel disk_model;
  // true: stage the next set's partitions while this set trains, and let
  // write-backs overlap compute. false: no lookahead, and the trainer waits for
  // all partition IO after each swap, so none of it overlaps compute.
  bool prefetch = true;
  std::string dir;  // defaults to a fresh temp path
};

// Async batch-construction pipeline and stage-3 compute parallelism
// (src/pipeline/, src/util/compute.h).
struct PipelineOptions {
  bool enabled = true;  // overlap sampling with compute
  // Batch-construction workers when pipelined (PipelineSession). Worker count never
  // changes results: batches are derived from per-batch seeds and consumed in order.
  int workers = 1;
  // Stage-3 compute parallelism: run the hot kernels (matmuls, neighbor
  // aggregation, ranking loss, sparse Adagrad) in fixed chunks on the shared
  // ThreadPool. Like the pipeline, this never changes results — chunk boundaries
  // and reduction order depend only on tensor shapes (src/util/compute.h), so
  // serial and N-thread runs are bitwise-identical.
  bool parallel_compute = true;
  // Pool overrides for tests/benches; nullptr = ThreadPool::Global(). Pointing both
  // at one pool exercises the production default of sampling workers and compute
  // chunks sharing the global pool.
  ThreadPool* compute_pool = nullptr;
  ThreadPool* pipeline_pool = nullptr;
};

// Crash-safe checkpointing (src/core/checkpoint.h): every n completed epochs
// the trainer writes an atomic epoch-boundary snapshot (model parameters +
// Adagrad accumulators, embedding table, RNG/epoch state) to `path`. A trainer
// constructed with the same config can ResumeFrom(path) and continue
// bitwise-identically to a run that never stopped. 0 disables automatic
// snapshots (SaveCheckpoint can still be called explicitly).
struct CheckpointOptions {
  int64_t every_n_epochs = 0;
  std::string path;
  // Keep-last-k retention: when > 0, each auto-save lands in a per-epoch file
  // "<path>.epoch<N>" and the oldest files beyond the newest k are pruned after
  // a successful commit (stale ".tmp" debris from crashed saves is swept too).
  // 0 preserves the legacy single-file behavior: every save overwrites `path`.
  int64_t keep_last_k = 0;
};

struct TrainingConfig {
  // Model.
  GnnLayerType layer_type = GnnLayerType::kGraphSage;
  std::vector<int64_t> fanouts;  // per hop, ordered away from targets; empty = no GNN
  std::vector<int64_t> dims;     // dims[0] = base representation width
  EdgeDirection direction = EdgeDirection::kBoth;
  std::string decoder = "distmult";  // link prediction only
  SamplerKind sampler = SamplerKind::kDense;

  // Optimisation.
  int64_t batch_size = 1000;
  int64_t num_negatives = 100;        // link prediction only
  float embedding_lr = 0.1f;          // sparse Adagrad on base representations
  float weight_lr = 0.01f;            // Adagrad on GNN/decoder weights
  uint64_t seed = 7;

  // Subsystem option groups (see the struct docs above; ReplicaOptions lives
  // with its subsystem in src/comm/gradient_exchange.h).
  StorageOptions storage;
  PipelineOptions pipeline;
  CheckpointOptions checkpoint;
  ReplicaOptions replica;

  int64_t num_layers() const { return static_cast<int64_t>(fanouts.size()); }

  // The model-defining subset of this config (src/core/model.h): what
  // ModelState::Build consumes, shared verbatim by both trainers and the
  // serving tier so a server always reconstructs exactly the trained model.
  ModelConfig model_config() const {
    ModelConfig m;
    m.layer_type = layer_type;
    m.fanouts = fanouts;
    m.dims = dims;
    m.direction = direction;
    m.decoder = decoder;
    m.sampler = sampler;
    m.weight_lr = weight_lr;
    m.seed = seed;
    return m;
  }

  // Partition-buffer IO engine settings: the engine defaults. Kept only for
  // benchmark/replay.cc, which calls it.
  IoEngineOptions MakePartitionIoOptions() const { return IoEngineOptions(); }

  // Gradient-exchange seam for one trainer (both trainers build theirs through
  // this so the replica wiring cannot diverge): the zero-copy LocalExchange
  // when replica.world_size == 1, a localhost-TCP ProcessGroupExchange
  // otherwise (construction blocks until every rank connects;
  // docs/DISTRIBUTED.md).
  std::unique_ptr<GradientExchange> MakeGradientExchange() const {
    return CreateGradientExchange(replica);
  }

  // Stage-3 compute handle for one trainer (both trainers build theirs through
  // this so the wiring cannot diverge). The trainers pass no `stats` sink; only
  // benchmark/replay.cc records region timings into one.
  ComputeContext MakeComputeContext(ComputeStats* stats) const {
    ComputeContext ctx;
    if (pipeline.parallel_compute) {
      ctx.pool = pipeline.compute_pool != nullptr ? pipeline.compute_pool
                                                  : &ThreadPool::Global();
    }
    ctx.stats = stats;
    return ctx;
  }
};

struct EpochStats {
  double loss = 0.0;
  // Host-clock time of the whole TrainEpoch call. The IO figures below are
  // modeled (SimulatedDisk's virtual clock) and are not part of it.
  double wall_seconds = 0.0;
  // Per-stage breakdown of the pipeline (Figure 2): sample = batch construction
  // across workers, io = modeled partition IO, compute = the training stage's wall
  // time, stalls = time a stage spent waiting on another.
  double compute_seconds = 0.0;
  double sample_seconds = 0.0;    // batch construction (overlaps compute when pipelined)
  double io_seconds = 0.0;        // total modeled IO
  double io_stall_seconds = 0.0;  // IO not hidden by prefetch overlap
  double pipeline_stall_seconds = 0.0;  // compute blocked waiting for the next batch
  // Cross-replica gradient-exchange accounting (all zero for the world=1
  // LocalExchange): time the training thread spent blocked in the exchange
  // (every exchange is synchronous, so all of it is stall) and bytes moved on
  // the wire.
  double comm_seconds = 0.0;
  uint64_t comm_bytes = 0;
  // IO-engine transfer counters for the epoch (zero without a partition
  // buffer): bytes moved through the engine, the time-weighted mean of
  // outstanding requests while it was busy, and the peak outstanding count.
  uint64_t io_read_bytes = 0;
  uint64_t io_write_bytes = 0;
  double io_queue_depth_mean = 0.0;
  int io_inflight_peak = 0;
  int64_t num_batches = 0;
  int64_t num_examples = 0;
  // Batches folded across ALL replicas this epoch (the loss divisor): every
  // rank's exchange carries every contributed batch's loss, so this equals
  // num_batches when world == 1 and world x the per-rank share otherwise.
  int64_t num_global_batches = 0;
  int64_t num_partition_sets = 0;
  // Ordered FNV-1a 64 fold of every batch's mean-loss bits, in consumption
  // order (docs/DETERMINISM.md). Two runs of the same epoch — serial or
  // pipelined, fresh or resumed, any worker count — must produce the same u64;
  // a mismatch means the batch stream itself diverged. Also persisted in the
  // checkpoint manifest as the "determinism_hash" scalar.
  uint64_t determinism_hash = 0;
  // Runtime-verification violations observed during the epoch (process-wide
  // RvRuntime delta across src/util/rv_monitor.h's monitored invariants).
  // Always 0 unless a pipeline/IO/serving invariant was broken.
  uint64_t rv_violations = 0;
  // Checkpoint auto-save accounting for this epoch; both are 0 when no save
  // ran. peak_bytes is the save path's largest transient allocation (manifest +
  // one partition of staging + the checksum chunk — never a full table image,
  // which is the streaming writer's contract).
  double checkpoint_save_seconds = 0.0;
  uint64_t checkpoint_peak_bytes = 0;

  // Folds one pipeline run over `num_examples` examples into the epoch totals.
  void AccumulatePipeline(const PipelineStats& ps, int64_t examples) {
    num_batches += ps.num_items;
    num_examples += examples;
    sample_seconds += ps.sample_seconds;
    pipeline_stall_seconds += ps.stall_seconds;
  }

  // Folds one partition swap into the epoch totals: synchronous IO (loads the
  // prefetcher missed) stalls in full; background IO (prefetch reads + async
  // write-backs) only by its excess over the compute it overlapped.
  void AccumulateSwapIo(double sync_io, double background_io,
                        double overlapped_compute) {
    io_seconds += sync_io + background_io;
    io_stall_seconds += sync_io + std::max(0.0, background_io - overlapped_compute);
  }
};

}  // namespace mariusgnn

#endif  // SRC_CORE_CONFIG_H_
