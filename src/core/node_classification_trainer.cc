#include "src/core/node_classification_trainer.h"

#include <algorithm>

#include "src/core/checkpoint.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace mariusgnn {

struct NodeClassificationTrainer::PreparedBatch {
  std::vector<int64_t> nodes;  // batch target nodes
  std::vector<int64_t> labels;
  GnnPlan plan;
};

NodeClassificationTrainer::NodeClassificationTrainer(const Graph* graph,
                                                     TrainingConfig config)
    : TrainerBase(graph, std::move(config), TaskKind::kNodeClassification) {
  if (config_.storage.use_disk) {
    partitioning_ = std::make_unique<Partitioning>(
        *graph_, config_.storage.num_physical, PartitionAssignment::kTrainingNodesFirst, rng_);
    MakePartitionBuffer("features.bin", graph_->features().cols(), /*learnable=*/false,
                        &graph_->features());
    buffer_store_ = std::make_unique<BufferedEmbeddingStore>(buffer_.get(),
                                                             /*trainable=*/false);
    buffer_store_->set_compute(&compute_);
  }
}

NodeClassificationTrainer::~NodeClassificationTrainer() = default;

Tensor NodeClassificationTrainer::GatherFeatures(const std::vector<int64_t>& nodes,
                                                 bool from_graph) {
  if (from_graph || buffer_store_ == nullptr) {
    return IndexSelect(graph_->features(), nodes, &compute_);
  }
  Tensor out;
  buffer_store_->Gather(nodes, &out);
  return out;
}

EpochPlan NodeClassificationTrainer::PlanEpoch() {
  train_ = graph_->train_nodes();
  rng_.Shuffle(train_);
  if (buffer_ == nullptr) {
    return MemoryPlan();
  }
  EpochPlan plan;
  plan.sets =
      caching_policy_.GenerateEpoch(*partitioning_, config_.storage.buffer_capacity, rng_);
  trained_.assign(static_cast<size_t>(config_.storage.num_physical), 0);
  return plan;
}

std::vector<int64_t> NodeClassificationTrainer::SetExamples(const EpochPlan& plan,
                                                            int64_t i) {
  if (buffer_ == nullptr) {
    return train_;
  }
  // A partition's training nodes are trained the first time it becomes resident
  // (in the cached regime all training partitions are resident in the single set).
  std::vector<int64_t> nodes;
  for (int64_t v : train_) {
    const int32_t part = partitioning_->PartitionOf(v);
    if (buffer_->IsResident(part) && trained_[static_cast<size_t>(part)] == 0) {
      nodes.push_back(v);
    }
  }
  for (int32_t part : plan.sets[static_cast<size_t>(i)]) {
    trained_[static_cast<size_t>(part)] = 1;
  }
  return nodes;
}

// Batch construction (pipeline stage 1). Runs on worker threads: everything is
// derived from `batch_seed` and read-only state (see training_pipeline.h).
std::shared_ptr<void> NodeClassificationTrainer::PrepareBatch(
    const std::vector<int64_t>& nodes, uint64_t batch_seed) const {
  auto prepared = std::make_shared<PreparedBatch>();
  PreparedBatch& batch = *prepared;
  batch.nodes = nodes;
  batch.labels.reserve(nodes.size());
  for (int64_t v : nodes) {
    batch.labels.push_back(graph_->labels()[static_cast<size_t>(v)]);
  }
  batch.plan =
      model_.SamplePlan(nodes, model_.TrainingSampleSeed(batch_seed), *sample_index_);
  return prepared;
}

void NodeClassificationTrainer::ConsumeBatch(void* item, EpochStats* stats) {
  PreparedBatch& batch = *static_cast<PreparedBatch*>(item);
  // Node classification always has a GNN (ValidateConfig).
  const Tensor reprs = model_.encoder->Forward(
      batch.plan, GatherFeatures(batch.plan.input_nodes, /*from_graph=*/false));
  Tensor logits = model_.head->Forward(reprs);
  Tensor dlogits;
  const float loss = SoftmaxCrossEntropy(logits, batch.labels, &dlogits, &compute_);
  model_.encoder->Backward(model_.head->Backward(dlogits));
  // Features are fixed inputs: no sparse stream, only the dense weights go
  // through the gradient-exchange seam.
  ExchangeApply(/*has_batch=*/true, loss, nullptr, nullptr, stats);
}

// Evaluation-time samples are seeded from the run seed (see the link-prediction
// trainer): metrics are a pure function of model state, identical across
// repeated calls and across a checkpoint resume.
Tensor NodeClassificationTrainer::InferLogits(const std::vector<int64_t>& nodes,
                                              const NeighborIndex& index) {
  const uint64_t eval_seed = MixSeed(config_.seed, 0x4556414CULL);  // "EVAL"
  return model_.InferLogits(
      nodes, eval_seed, index,
      [&](const std::vector<int64_t>& ids) { return GatherFeatures(ids, /*from_graph=*/true); },
      &compute_);
}

double NodeClassificationTrainer::EvaluateAccuracy(const std::vector<int64_t>& nodes) {
  if (nodes.empty()) {
    return 0.0;
  }
  const NeighborIndex& index = FullIndex();
  int64_t correct = 0;
  const int64_t chunk = 512;
  for (size_t begin = 0; begin < nodes.size(); begin += chunk) {
    const size_t end = std::min(nodes.size(), begin + chunk);
    std::vector<int64_t> batch(nodes.begin() + begin, nodes.begin() + end);
    Tensor logits = InferLogits(batch, index);
    for (int64_t r = 0; r < logits.rows(); ++r) {
      int64_t best = 0;
      for (int64_t c = 1; c < logits.cols(); ++c) {
        if (logits(r, c) > logits(r, best)) {
          best = c;
        }
      }
      if (best == graph_->labels()[static_cast<size_t>(batch[static_cast<size_t>(r)])]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

}  // namespace mariusgnn
