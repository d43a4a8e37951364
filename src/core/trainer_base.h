// Shared trainer surface: both task trainers own a ModelState built through the
// same code path and expose one checkpoint/epoch contract.
//
// TrainerBase holds everything task-independent — config, RNG, the stage-3
// compute handle, the model, and the partition buffer — and implements the epoch loop (Section 3, Figure 2),
// TrainEpoch (epoch counting + auto-checkpoint), SaveCheckpoint, and ResumeFrom
// once. Derived trainers implement only the task hooks: plan the epoch's
// partition sets, pick a set's training examples, build a batch (PrepareBatch)
// and train on it (ConsumeBatch), plus the checkpoint extra-section hooks (the
// link-prediction embedding table; node classification has none), so neither
// the set loop nor the save/restore sequence can drift between tasks.
#ifndef SRC_CORE_TRAINER_BASE_H_
#define SRC_CORE_TRAINER_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/comm/gradient_exchange.h"
#include "src/core/checkpoint.h"
#include "src/core/config.h"
#include "src/core/model.h"
#include "src/graph/graph.h"
#include "src/graph/neighbor_index.h"
#include "src/graph/partition.h"
#include "src/policy/policy.h"
#include "src/util/compute.h"
#include "src/util/rng.h"
#include "src/util/rv_monitor.h"

namespace mariusgnn {

class EmbeddingStore;
class PartitionBuffer;

class TrainerBase {
 public:
  virtual ~TrainerBase();

  // Runs one epoch, bumps the completed-epoch count, and auto-saves to
  // config.checkpoint.path every config.checkpoint.every_n_epochs epochs.
  EpochStats TrainEpoch();

  // Crash-safe checkpointing (src/core/checkpoint.h). SaveCheckpoint streams an
  // atomic epoch-boundary snapshot: model parameters + Adagrad accumulators,
  // the trainer RNG, the completed-epoch count, and any task sections the
  // derived trainer appends (the link-prediction embedding table, streamed
  // partition-by-partition in disk mode — never a full table image). ResumeFrom
  // restores a snapshot into a trainer constructed with the SAME config; the
  // continued run is bitwise-identical to one that never stopped (every batch
  // is a pure function of MixSeed(run_seed, batch_index)).
  void SaveCheckpoint(const std::string& path);
  void ResumeFrom(const std::string& path);
  int64_t epochs_completed() const { return epochs_completed_; }

  // Accounting of the most recent SaveCheckpoint (explicit or auto-save):
  // peak transient allocation, bytes written, wall seconds. Zeroes before any
  // save has run.
  const CheckpointSaveStats& last_checkpoint_stats() const {
    return last_checkpoint_stats_;
  }

  // Determinism hash of the most recent completed epoch (also in that epoch's
  // EpochStats.determinism_hash, and in checkpoints as the "determinism_hash"
  // manifest scalar). 0 before any epoch has run.
  uint64_t last_determinism_hash() const { return last_determinism_hash_; }

  const TrainingConfig& config() const { return config_; }
  const ModelState& model() const { return model_; }
  // Node partitioning of disk mode; null in memory mode.
  const Partitioning* partitioning() const { return partitioning_.get(); }

 protected:
  // Builds the ModelState (validating the config for `kind`) and the shared
  // compute wiring. Derived ctors add task storage on top; any RNG
  // draws they make come after the model's, preserving historical draw order.
  TrainerBase(const Graph* graph, TrainingConfig config, TaskKind kind);

  // Epoch-loop task hooks. Per epoch RunEpoch calls PlanEpoch once, then
  // for each set i: makes S_i resident, stages the next set, points
  // sample_index_ at S_i's edge index, calls SetExamples(plan, i), and pipelines
  // those examples in batch_size slices through PrepareBatch (worker threads)
  // and ConsumeBatch (this thread, in batch order).
  //
  // The epoch's partition sets S (and, for link prediction, the edge buckets
  // X). Memory mode has no buffer and returns MemoryPlan(). Any RNG the task
  // draws before its first set is drawn here.
  virtual EpochPlan PlanEpoch() = 0;
  // Set i's training examples in batch order, called once the set is resident.
  // The task draws its per-set RNG here; RunEpoch then draws the set's run
  // seed only when the returned list is non-empty.
  virtual std::vector<int64_t> SetExamples(const EpochPlan& plan, int64_t i) = 0;
  // Pipeline stage 1, on worker threads: one batch of examples, a pure
  // function of `batch_seed` and read-only state.
  virtual std::shared_ptr<void> PrepareBatch(const std::vector<int64_t>& examples,
                                             uint64_t batch_seed) const = 0;
  // Pipeline stage 3, on this thread in batch order: forward/backward, then the
  // update through ExchangeApply.
  virtual void ConsumeBatch(void* batch, EpochStats* stats) = 0;

  // The memory-mode plan: one set, which trains over the full-graph index.
  static EpochPlan MemoryPlan();

  // Builds buffer_ over partitioning_: `dim`-wide rows in storage.dir/file_name,
  // or in a fresh temp file when storage.dir is empty. Over a shared storage dir
  // with world > 1 every replica holds identical rows, so rank 0 alone creates
  // and seeds the file from `init`, the other ranks attach to it without
  // truncating it, and one Barrier orders every read after the seed. A learnable
  // buffer there also gets an ownership map: only rank (partition % world)
  // writes a partition back.
  void MakePartitionBuffer(const std::string& file_name, int64_t dim, bool learnable,
                           const Tensor* init);

  // Neighbor index over the whole graph: memory-mode training and evaluation.
  const NeighborIndex& FullIndex();

  // The one place a batch's gradients meet the optimizer: routes this rank's
  // step (dense p.grad + touched sparse rows + mean loss) through the
  // gradient-exchange seam, folds every contributed rank's loss into the
  // epoch's determinism hash and loss accumulator in ascending rank order (==
  // global batch order), applies the merged sparse rows to embeddings_ (when
  // set), and applies the reduced dense gradients through the optimizer's
  // apply-from-reduced path. Batchless trailing steps (the global batch count
  // was not divisible by world) call this with has_batch=false and null
  // gradients so every rank performs the same exchange sequence.
  void ExchangeApply(bool has_batch, float loss,
                     const std::vector<int64_t>* sparse_nodes,
                     const Tensor* sparse_grads, EpochStats* stats);

  // Checkpoint extension hooks: extra sections after the model-parameter
  // sections (order and count must agree between the three). Append pushes
  // CheckpointSectionSpec producers (shapes known up front, payloads streamed
  // on demand); Restore pulls section ranges straight from the reader.
  virtual void AppendCheckpointSections(CheckpointSaveRequest* request);
  virtual void RestoreCheckpointSections(CheckpointReader& reader);
  virtual size_t NumExtraCheckpointSections() const;

  const Graph* graph_;
  TrainingConfig config_;
  Rng rng_;
  int64_t epochs_completed_ = 0;

  // Stage-3 parallel compute: handle threaded into the model's components (and
  // the derived trainer's stores).
  ComputeContext compute_;

  // Gradient-exchange seam (src/comm/): LocalExchange identity for world=1,
  // ProcessGroupExchange for multi-replica runs. Built in the ctor, so a
  // multi-replica trainer blocks there until all ranks connect.
  std::unique_ptr<GradientExchange> exchange_;
  // Batch-index → replica/seed partitioning shared by both trainers' producer
  // lambdas (src/comm/gradient_exchange.h).
  ReplicaBatchPartition replica_;

  // Per-epoch determinism hash: TrainEpoch resets it, the derived trainer's
  // in-order consumer folds each batch's mean-loss bits into it, and TrainEpoch
  // publishes the result (EpochStats + last_determinism_hash_).
  DeterminismHash epoch_determinism_;
  uint64_t last_determinism_hash_ = 0;

  CheckpointSaveStats last_checkpoint_stats_;

  ModelState model_;
  // The neighbor index of the set being trained, which PrepareBatch samples
  // over. RunEpoch sets it before each segment starts, so workers only read it.
  const NeighborIndex* sample_index_ = nullptr;

  // Disk mode: the node partitioning and the partition buffer over it. Both
  // null in memory mode.
  std::unique_ptr<Partitioning> partitioning_;
  std::unique_ptr<PartitionBuffer> buffer_;
  // Learnable base representations (link prediction): the store the sparse
  // half of every exchange step updates. Null when the task has none.
  EmbeddingStore* embeddings_ = nullptr;

 private:
  // The epoch loop: PlanEpoch, then every set through one PipelineSession.
  EpochStats RunEpoch();

  // Shared-storage write-back fence, run at every partition-set transition
  // when buffer_ has an active ownership map (multiple replicas share one
  // backing file and each writes back only its owned partitions). Drains this
  // rank's async write-backs, then runs a cross-replica rendezvous barrier —
  // so by the time any rank re-admits a partition, its owner's dirty image is
  // fully on disk and no reader can see a stale or torn partition. No-op when
  // ownership is inactive (world == 1, private storage, or a read-only
  // buffer).
  void SharedWritebackBarrier();

  std::unique_ptr<NeighborIndex> full_index_;
};

}  // namespace mariusgnn

#endif  // SRC_CORE_TRAINER_BASE_H_
