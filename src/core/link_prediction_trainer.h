// End-to-end link-prediction training (Sections 3 and 5.1).
//
// Supports every configuration the paper evaluates:
//  - decoder-only knowledge-graph models (empty fanouts: DistMult/TransE/ComplEx as in
//    Marius) and k-layer GNN encoders (GraphSage/GCN/GAT);
//  - in-memory training (the whole graph resident) and disk-based training through the
//    partition buffer with a COMET or BETA replacement policy;
//  - DENSE sampling (MariusGNN) or baseline layer-wise sampling (in-memory only,
//    mirroring DGL/PyG's capabilities), both lowered to the one encoder's plan;
//  - pipelined mini-batch construction.
//
// The model itself (encoder/decoder/optimizer/samplers) lives in the inherited
// ModelState (src/core/model.h) and the epoch loop in TrainerBase; this class
// adds the embedding storage, the disk ordering policies, and the task hooks.
#ifndef SRC_CORE_LINK_PREDICTION_TRAINER_H_
#define SRC_CORE_LINK_PREDICTION_TRAINER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/config.h"
#include "src/core/trainer_base.h"
#include "src/graph/graph.h"
#include "src/graph/partition.h"
#include "src/policy/policy.h"
#include "src/sampler/negative.h"
#include "src/storage/embedding_store.h"
#include "src/storage/partition_buffer.h"

namespace mariusgnn {

class LinkPredictionTrainer : public TrainerBase {
 public:
  LinkPredictionTrainer(const Graph* graph, TrainingConfig config);
  ~LinkPredictionTrainer() override;

  // Ranking MRR with shared uniform negatives, averaged over dst- and src-corruption.
  // Evaluates on up to max_edges test (or valid) edges. With filtered=true, negatives
  // that form true edges of the graph are excluded from the ranking (the standard
  // "filtered" knowledge-graph protocol); the default raw protocol matches the paper.
  double EvaluateMrr(int64_t num_negatives = 500, int64_t max_edges = 2000,
                     bool use_valid = false, bool filtered = false);

 protected:
  // Epoch-loop hooks (TrainerBase::RunEpoch). Memory mode trains every training edge
  // as one set; disk mode follows the ordering policy's plan. Per set the RNG
  // draw order is Shuffle(examples), then the negative sampler's seed.
  EpochPlan PlanEpoch() override;
  std::vector<int64_t> SetExamples(const EpochPlan& plan, int64_t i) override;
  // Builds one mini batch of edge ids. Negatives and neighborhood samples come
  // from seed-derived RNG streams, so the batch does not depend on worker
  // scheduling.
  std::shared_ptr<void> PrepareBatch(const std::vector<int64_t>& edge_ids,
                                     uint64_t batch_seed) const override;
  void ConsumeBatch(void* batch, EpochStats* stats) override;

  // Checkpoint extras: the embedding table (values + Adagrad state). In disk
  // mode the sections are streamed partition-by-partition through
  // PartitionBuffer::ExportPartition / ImportPartition, so the save/restore
  // path never materialises the full table in memory.
  void AppendCheckpointSections(CheckpointSaveRequest* request) override;
  void RestoreCheckpointSections(CheckpointReader& reader) override;
  size_t NumExtraCheckpointSections() const override { return 2; }

  // Streaming producer for one embedding section ("embeddings.values" or
  // "embeddings.state") in disk mode: exports each partition into a one-
  // partition scratch and scatters its rows to their node-indexed positions.
  CheckpointSectionSpec MakeBufferSectionSpec(const char* name, bool state_stream);

 private:
  struct PreparedBatch;

  // Representations of `nodes` for evaluation, using full-graph sampling over
  // `values` (the exported/in-memory base representations).
  Tensor InferReprs(const std::vector<int64_t>& nodes, const Tensor& values);

  // The current set's negative sampler (universe: the resident nodes in disk
  // mode), replaced by SetExamples between segments.
  std::optional<UniformNegativeSampler> negatives_;

  // In-memory state.
  std::unique_ptr<InMemoryEmbeddingStore> mem_store_;

  // Disk state.
  std::unique_ptr<BufferedEmbeddingStore> disk_store_;
  std::unique_ptr<OrderingPolicy> policy_;
  std::vector<char> is_train_edge_;

  // Lazily built true-edge set for the filtered MRR protocol.
  std::unordered_set<uint64_t> true_edges_;
};

}  // namespace mariusgnn

#endif  // SRC_CORE_LINK_PREDICTION_TRAINER_H_
