// End-to-end node-classification training (Sections 3 and 5.2).
//
// Fixed node features feed a k-layer GNN encoder plus a linear/softmax head. Storage
// modes:
//  - in-memory: features and graph resident, full-graph neighbor sampling;
//  - disk: features stored per-partition on the simulated disk; training nodes are
//    packed into the leading partitions and cached in CPU memory for the whole epoch
//    (the Section 5.2 policy), with sampling restricted to the in-memory subgraph.
//
// The model itself (encoder/head/optimizer/samplers) lives in the inherited
// ModelState (src/core/model.h) and the epoch loop in TrainerBase; this class
// adds the feature storage and the task hooks.
#ifndef SRC_CORE_NODE_CLASSIFICATION_TRAINER_H_
#define SRC_CORE_NODE_CLASSIFICATION_TRAINER_H_

#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/core/trainer_base.h"
#include "src/graph/graph.h"
#include "src/graph/partition.h"
#include "src/policy/node_caching.h"
#include "src/storage/embedding_store.h"
#include "src/storage/partition_buffer.h"

namespace mariusgnn {

class NodeClassificationTrainer : public TrainerBase {
 public:
  NodeClassificationTrainer(const Graph* graph, TrainingConfig config);
  ~NodeClassificationTrainer() override;

  // Multi-class accuracy over a node split, computed with full-graph sampling.
  double EvaluateAccuracy(const std::vector<int64_t>& nodes);
  double EvaluateTestAccuracy() { return EvaluateAccuracy(graph_->test_nodes()); }
  double EvaluateValidAccuracy() { return EvaluateAccuracy(graph_->valid_nodes()); }

 protected:
  // Epoch-loop hooks (TrainerBase::RunEpoch). PlanEpoch shuffles the training nodes,
  // then (disk mode) draws the caching policy's sets. A set trains the nodes of
  // the partitions resident for the first time this epoch, so it draws no RNG;
  // sets with no such nodes train nothing. Features are fixed inputs, so the
  // checkpoint has no extra sections beyond the model parameters.
  EpochPlan PlanEpoch() override;
  std::vector<int64_t> SetExamples(const EpochPlan& plan, int64_t i) override;
  std::shared_ptr<void> PrepareBatch(const std::vector<int64_t>& nodes,
                                     uint64_t batch_seed) const override;
  void ConsumeBatch(void* batch, EpochStats* stats) override;

 private:
  struct PreparedBatch;

  Tensor GatherFeatures(const std::vector<int64_t>& nodes, bool from_graph);
  Tensor InferLogits(const std::vector<int64_t>& nodes, const NeighborIndex& index);

  // This epoch's shuffled training nodes, and (disk mode) which partitions
  // have already trained theirs.
  std::vector<int64_t> train_;
  std::vector<char> trained_;

  // Disk state (features are read-only: no write-back).
  std::unique_ptr<BufferedEmbeddingStore> buffer_store_;  // chunked Gather over buffer_
  NodeCachingPolicy caching_policy_;
};

}  // namespace mariusgnn

#endif  // SRC_CORE_NODE_CLASSIFICATION_TRAINER_H_
