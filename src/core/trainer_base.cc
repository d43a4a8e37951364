#include "src/core/trainer_base.h"

#include <algorithm>
#include <cstring>

#include "src/core/checkpoint.h"
#include "src/pipeline/training_pipeline.h"
#include "src/storage/embedding_store.h"
#include "src/storage/partition_buffer.h"
#include "src/util/binary_io.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace mariusgnn {
namespace {

// The epoch's PipelineSession settings, validated: no workers when the
// pipeline is off.
PipelineSessionOptions MakePipelineSessionOptions(const PipelineOptions& pipeline) {
  MG_CHECK_MSG(pipeline.workers >= 0, "pipeline.workers must be >= 0");
  PipelineSessionOptions options;
  options.workers = pipeline.enabled ? pipeline.workers : 0;
  options.pool = pipeline.pipeline_pool;
  return options;
}

}  // namespace

TrainerBase::TrainerBase(const Graph* graph, TrainingConfig config, TaskKind kind)
    : graph_(graph),
      config_(std::move(config)),
      rng_(config_.seed),
      compute_(config_.MakeComputeContext(nullptr)),
      model_(ModelState::Build(kind, *graph, config_.model_config(), rng_)) {
  model_.SetCompute(&compute_);
  exchange_ = config_.MakeGradientExchange();
  replica_.rank = exchange_->rank();
  replica_.world = exchange_->world();
  if (config_.checkpoint.every_n_epochs > 0) {
    MG_CHECK_MSG(!config_.checkpoint.path.empty(),
                 "checkpoint_every_n_epochs requires checkpoint_path");
  }
  if (config_.storage.use_disk) {
    MG_CHECK(config_.storage.num_physical >= 2 && config_.storage.buffer_capacity >= 2);
    MG_CHECK_MSG(config_.sampler == SamplerKind::kDense,
                 "baseline sampler supports in-memory training only");
  }
}

TrainerBase::~TrainerBase() = default;

EpochStats TrainerBase::TrainEpoch() {
  WallTimer epoch_timer;
  epoch_determinism_.Reset();
  const uint64_t rv_before = RvRuntime::Global().TotalViolations();
  EpochStats stats = RunEpoch();
  last_determinism_hash_ = epoch_determinism_.value();
  stats.determinism_hash = last_determinism_hash_;
  // Cross-replica exchange-and-compare: every rank folded the identical loss
  // stream, so all hashes must agree with rank 0's; any disagreement reports a
  // comm.replica_hash violation inside the exchange (counted in rv_violations
  // below). Identity for world == 1.
  exchange_->ExchangeEpochHash(last_determinism_hash_);
  const CommStats comm = exchange_->ConsumeStats();
  stats.comm_seconds = comm.blocking_seconds;
  stats.comm_bytes = comm.bytes_sent + comm.bytes_received;
  stats.rv_violations = RvRuntime::Global().TotalViolations() - rv_before;
  ++epochs_completed_;
  // Auto-save on rank 0 only: every replica runs the identical config, so with
  // world > 1 all ranks would otherwise race on the same checkpoint path (and
  // the same '<path>.tmp' staging file, which PruneCheckpoints also treats as
  // stale debris — a concurrent save from another rank could be corrupted or
  // deleted mid-write). Replica state is bitwise-identical at every epoch
  // boundary (asserted by the hash exchange above), so rank 0's snapshot is
  // everyone's snapshot. The hash exchange is also a rendezvous that runs
  // after RunEpoch's synchronous flush, so rank 0 reads fully-written shared
  // storage. docs/DISTRIBUTED.md documents the contract.
  if (replica_.rank == 0 && config_.checkpoint.every_n_epochs > 0 &&
      epochs_completed_ % config_.checkpoint.every_n_epochs == 0) {
    if (config_.checkpoint.keep_last_k > 0) {
      // Keep-last-k retention: each save lands in its own per-epoch file, and
      // only after a successful Commit are the oldest files (and any stale
      // .tmp debris from crashed saves) pruned — the file just written is
      // never a deletion candidate.
      const std::string epoch_path =
          CheckpointEpochPath(config_.checkpoint.path, epochs_completed_);
      SaveCheckpoint(epoch_path);
      PruneCheckpoints(config_.checkpoint.path, config_.checkpoint.keep_last_k,
                       epoch_path);
    } else {
      SaveCheckpoint(config_.checkpoint.path);
    }
    stats.checkpoint_save_seconds = last_checkpoint_stats_.seconds;
    stats.checkpoint_peak_bytes = last_checkpoint_stats_.peak_bytes;
  }
  stats.wall_seconds = epoch_timer.Seconds();
  return stats;
}

EpochPlan TrainerBase::MemoryPlan() {
  EpochPlan plan;
  plan.sets.emplace_back();
  plan.buckets_per_set.emplace_back();
  return plan;
}

const NeighborIndex& TrainerBase::FullIndex() {
  if (full_index_ == nullptr) {
    full_index_ = std::make_unique<NeighborIndex>(*graph_);
  }
  return *full_index_;
}

void TrainerBase::MakePartitionBuffer(const std::string& file_name, int64_t dim,
                                      bool learnable, const Tensor* init) {
  const std::string path = config_.storage.dir.empty()
                               ? TempPath("mgnn_" + file_name)
                               : config_.storage.dir + "/" + file_name;
  const bool shared = replica_.world > 1 && !config_.storage.dir.empty();
  buffer_ = std::make_unique<PartitionBuffer>(
      partitioning_.get(), dim, config_.storage.buffer_capacity, path,
      config_.storage.disk_model, learnable, init, IoEngineOptions(),
      shared && replica_.rank != 0 ? BackingFile::kAttach : BackingFile::kCreate);
  if (!shared) {
    return;
  }
  if (learnable) {
    // Only the owning rank writes a partition back; the others skip the
    // redundant (and racy) write. With a private per-rank file every rank must
    // keep writing everything, or its own later reads would see stale rows.
    std::vector<uint8_t> owned(static_cast<size_t>(config_.storage.num_physical));
    for (int32_t p = 0; p < config_.storage.num_physical; ++p) {
      owned[static_cast<size_t>(p)] =
          static_cast<uint8_t>(p % replica_.world == replica_.rank);
    }
    buffer_->SetPartitionOwnership(std::move(owned));
  }
  // No rank reads the shared file before rank 0's seed is complete.
  exchange_->Barrier();
}

void TrainerBase::SharedWritebackBarrier() {
  if (!buffer_->partition_ownership_active()) {
    return;
  }
  // Local half: this rank's dirty evictions may still be queued in the IO
  // engine — only a completed write makes the shared file safe to re-read.
  buffer_->DrainIo();
  // Global half: no rank proceeds (and thus re-admits a partition) until every
  // rank's own write-backs are durable.
  exchange_->Barrier();
}

// One PipelineSession spans the whole epoch, so its sampling workers start
// once per epoch rather than once per partition set (a COMET disk epoch runs
// tens of sets).
// The producer maps the session's global index onto the current set's local
// batch number (segment.base), then through ReplicaBatchPartition onto the
// set's GLOBAL batch number g — rank r builds exactly the batches with
// g % world == r, seeded by ReplicaBatchPartition::BatchSeed(set seed, g). The
// segment state changes only between segments, which is safe without locks:
// workers never claim an index beyond the announced limit.
EpochStats TrainerBase::RunEpoch() {
  EpochStats stats;
  const EpochPlan plan = PlanEpoch();
  stats.num_partition_sets = plan.num_sets();

  struct Segment {
    std::vector<int64_t> examples;
    uint64_t seed = 0;
    int64_t base = 0;
  } segment;
  const int64_t batch_size = config_.batch_size;
  PipelineSession session(
      MakePipelineSessionOptions(config_.pipeline),
      [this, &segment, batch_size](int64_t index) {
        const int64_t g = replica_.GlobalIndex(index - segment.base);
        const int64_t begin = g * batch_size;
        const int64_t end = std::min(begin + batch_size,
                                     static_cast<int64_t>(segment.examples.size()));
        const std::vector<int64_t> ids(segment.examples.begin() + begin,
                                       segment.examples.begin() + end);
        return PrepareBatch(ids, ReplicaBatchPartition::BatchSeed(segment.seed, g));
      },
      [this, &stats](void* item, int64_t) { ConsumeBatch(item, &stats); });

  double prev_compute = 0.0;
  for (int64_t i = 0; i < plan.num_sets(); ++i) {
    const std::vector<int32_t>& set = plan.sets[static_cast<size_t>(i)];
    const bool more_sets = i + 1 < plan.num_sets();

    std::unique_ptr<NeighborIndex> resident_index;
    if (buffer_ != nullptr) {
      const double sync_io = buffer_->SetResident(set);
      // Without prefetch nothing overlaps compute: wait for this swap's
      // write-backs here and charge them as stall in full.
      const bool prefetch = config_.storage.prefetch;
      if (!prefetch) {
        buffer_->DrainIo();
      }
      stats.AccumulateSwapIo(sync_io, buffer_->ConsumeBackgroundIoSeconds(),
                             prefetch ? prev_compute : 0.0);
      // Shared-storage fence (no-op otherwise): this set's dirty evictions may
      // still be async submissions, and partitions another rank owns are never
      // written back by this rank at all — so before anyone reads ahead, drain
      // own write-backs and rendezvous. Every set-i read is thereby covered by
      // the fence at set i-1 (within one SetResident the evict and load sets
      // are disjoint, and all ranks run identical plans); the prefetch below
      // issues strictly after the fence. The epoch boundary needs no extra
      // fence: the flush below is synchronous and the epoch-hash exchange that
      // follows it is itself a rendezvous.
      SharedWritebackBarrier();
      // Stage the next set's partitions while this set trains (Figure 2's
      // partition prefetch).
      if (prefetch && more_sets) {
        buffer_->Prefetch(PrefetchDelta(set, plan.sets[static_cast<size_t>(i) + 1]));
      }
    }

    WallTimer set_timer;
    const NeighborIndex* index = nullptr;
    if (buffer_ == nullptr) {
      index = &FullIndex();
    } else {
      // In-memory subgraph: all edges between resident partitions (Section 4.1).
      std::vector<Edge> resident_edges;
      for (int32_t a : set) {
        for (int32_t b : set) {
          for (int64_t e : partitioning_->Bucket(a, b)) {
            resident_edges.push_back(graph_->edge(e));
          }
        }
      }
      resident_index = std::make_unique<NeighborIndex>(graph_->num_nodes(), resident_edges);
      index = resident_index.get();
    }

    // X_i, run as one session segment. Workers only call const, seed-driven
    // sampling methods, so this set's index is the only sampling state the
    // segment needs.
    segment.examples = SetExamples(plan, i);
    const int64_t total = static_cast<int64_t>(segment.examples.size());
    if (total > 0) {
      sample_index_ = index;
      segment.seed = rng_.Next();
      segment.base = session.announced();
      const int64_t num_batches = (total + batch_size - 1) / batch_size;
      // Rank r consumes only the global batches with g % world == r; the other
      // ranks' losses/gradients arrive through the exchange. Ranks whose share
      // is short of the step count run trailing batchless exchanges so every
      // rank performs the same exchange sequence (StepCount == rank 0's local
      // count).
      const int64_t local_batches = replica_.LocalCount(num_batches);
      const PipelineStats ps = session.RunSegment(local_batches);
      for (int64_t s = local_batches; s < replica_.StepCount(num_batches); ++s) {
        ExchangeApply(/*has_batch=*/false, 0.0f, nullptr, nullptr, &stats);
      }
      int64_t local_examples = local_batches * batch_size;
      if (local_batches > 0 && replica_.GlobalIndex(local_batches - 1) == num_batches - 1) {
        // This rank owns the (possibly partial) last global batch.
        local_examples += total - num_batches * batch_size;
      }
      stats.AccumulatePipeline(ps, local_examples);
    }
    prev_compute = set_timer.Seconds();
    stats.compute_seconds += prev_compute;
  }

  if (buffer_ != nullptr) {
    // End of epoch: a learnable buffer flushes its dirty partitions (draining
    // the write-backs still in flight first), so every epoch starts from the
    // on-disk table. A read-only buffer only drains: its partitions stay
    // resident, and the next epoch's first swap loads only what changed.
    // Background leftovers are charged conservatively as full stalls.
    double flush_io = 0.0;
    if (buffer_->learnable()) {
      flush_io = buffer_->FlushAll();
    } else {
      buffer_->DrainIo();
    }
    const double leftover_bg = buffer_->ConsumeBackgroundIoSeconds();
    stats.io_seconds += flush_io + leftover_bg;
    stats.io_stall_seconds += flush_io + leftover_bg;
    const IoEngineStats engine_io = buffer_->ConsumeIoStats();
    stats.io_read_bytes = engine_io.read_bytes;
    stats.io_write_bytes = engine_io.write_bytes;
    stats.io_queue_depth_mean = engine_io.queue_depth_mean;
    stats.io_inflight_peak = engine_io.inflight_peak;
  }
  if (stats.num_global_batches > 0) {
    stats.loss /= static_cast<double>(stats.num_global_batches);
  }
  return stats;
}

void TrainerBase::ExchangeApply(bool has_batch, float loss,
                                const std::vector<int64_t>* sparse_nodes,
                                const Tensor* sparse_grads, EpochStats* stats) {
  GradientStep step;
  step.has_batch = has_batch;
  step.loss = loss;
  step.dense = &model_.params;
  step.sparse_nodes = sparse_nodes;
  step.sparse_grads = sparse_grads;
  const ReducedStep& reduced = exchange_->Exchange(step);

  // Fold every contributed rank's loss in ascending rank order — the global
  // batch order — so all replicas hash and average the identical loss stream
  // (the in-order consumer makes this the epoch's determinism hash).
  const int32_t world = exchange_->world();
  for (int32_t r = 0; r < world; ++r) {
    if (reduced.contributed[static_cast<size_t>(r)] != 0) {
      epoch_determinism_.FoldFloat(reduced.losses[static_cast<size_t>(r)]);
      stats->loss += reduced.losses[static_cast<size_t>(r)];
      ++stats->num_global_batches;
    }
  }

  // Apply the merged sparse rows, then the reduced dense gradients — the two
  // touch disjoint parameters, preserving the historical sparse-then-dense
  // order inside the trainers' consume step.
  if (embeddings_ != nullptr && reduced.sparse_nodes != nullptr &&
      !reduced.sparse_nodes->empty()) {
    embeddings_->ApplyGradients(*reduced.sparse_nodes, *reduced.sparse_grads,
                                config_.embedding_lr);
  }
  if (!model_.params.empty()) {
    if (reduced.dense != nullptr) {
      model_.weight_opt->StepAllFromReduced(model_.params, *reduced.dense);
    } else {
      model_.weight_opt->StepAll(model_.params);
    }
  }
}

void TrainerBase::AppendCheckpointSections(CheckpointSaveRequest* request) {
  (void)request;
}

void TrainerBase::RestoreCheckpointSections(CheckpointReader& reader) {
  (void)reader;
}

size_t TrainerBase::NumExtraCheckpointSections() const { return 0; }

void TrainerBase::SaveCheckpoint(const std::string& path) {
  CheckpointSaveRequest request;
  BuildTrainerCheckpointRequest(CheckpointKindName(model_.kind), config_.seed,
                                epochs_completed_, rng_, model_.params,
                                &request);
  // Last completed epoch's determinism hash, bitcast into the named-scalar
  // list (docs/CHECKPOINT_FORMAT.md): the resumed trainer re-exposes it, so a
  // replica can compare trajectories against the checkpointed run with one u64
  // and no new manifest version.
  int64_t hash_bits = 0;
  std::memcpy(&hash_bits, &last_determinism_hash_, sizeof(hash_bits));
  request.scalars.emplace_back("determinism_hash", hash_bits);
  AppendCheckpointSections(&request);
  last_checkpoint_stats_ = SaveCheckpointStreaming(request, path);
}

void TrainerBase::ResumeFrom(const std::string& path) {
  CheckpointReader reader;
  std::string error;
  MG_CHECK_MSG(reader.Open(path, &error), error.c_str());
  // Validate the full data block BEFORE touching any trainer state, preserving
  // the all-or-nothing restore contract the whole-file loader provided.
  MG_CHECK_MSG(reader.VerifyDataChecksum(&error), error.c_str());
  RestoreTrainerCheckpointCore(reader, CheckpointKindName(model_.kind),
                               config_.seed, NumExtraCheckpointSections(),
                               model_.params, &rng_, &epochs_completed_);
  const int64_t hash_bits = reader.manifest().scalar("determinism_hash", 0);
  std::memcpy(&last_determinism_hash_, &hash_bits, sizeof(last_determinism_hash_));
  RestoreCheckpointSections(reader);
}

}  // namespace mariusgnn
