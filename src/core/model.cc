#include "src/core/model.h"

#include <utility>

#include "src/util/check.h"

namespace mariusgnn {

const char* CheckpointKindName(TaskKind kind) {
  return kind == TaskKind::kLinkPrediction ? "link_prediction" : "node_classification";
}

void ModelState::ValidateConfig(TaskKind kind, const Graph& graph,
                                const ModelConfig& config) {
  MG_CHECK(!config.dims.empty());
  MG_CHECK(static_cast<int64_t>(config.dims.size()) == config.num_layers() + 1);
  if (kind == TaskKind::kNodeClassification) {
    MG_CHECK(graph.has_features());
    MG_CHECK(!graph.labels().empty() && graph.num_classes() > 0);
    MG_CHECK(config.num_layers() >= 1);
    MG_CHECK(config.dims.front() == graph.features().cols());
  }
}

// RNG draw order is part of the checkpoint/trajectory contract: encoder layers
// first, then the task head, exactly as the trainers have always initialised.
// The samplers are stateless and draw nothing from `rng`.
ModelState ModelState::Build(TaskKind kind, const Graph& graph,
                             const ModelConfig& config, Rng& rng) {
  ValidateConfig(kind, graph, config);
  ModelState m;
  m.kind = kind;
  m.config = config;
  if (config.num_layers() > 0) {
    // Link prediction trains its node embeddings through d(h0); node classification
    // reads fixed features, so its encoder computes no input gradient.
    const bool trains_inputs = kind == TaskKind::kLinkPrediction;
    m.encoder = std::make_unique<GnnEncoder>(config.layer_type, config.dims,
                                             Activation::kRelu, rng, trains_inputs);
    if (config.sampler == SamplerKind::kDense) {
      m.dense_sampler = std::make_unique<DenseSampler>(config.fanouts, config.direction);
    } else {
      m.layerwise_sampler =
          std::make_unique<LayerwiseSampler>(config.fanouts, config.direction);
    }
  }
  if (kind == TaskKind::kLinkPrediction) {
    m.decoder = MakeDecoder(config.decoder, graph.num_relations(), config.dims.back(), rng);
  } else {
    m.head = std::make_unique<LinearLayer>(config.dims.back(), graph.num_classes(), rng);
  }
  m.weight_opt = std::make_unique<Adagrad>(config.weight_lr);

  if (m.encoder != nullptr) {
    m.params = m.encoder->Parameters();
  }
  if (m.decoder != nullptr) {
    for (Parameter* p : m.decoder->Parameters()) {
      m.params.push_back(p);
    }
  }
  if (m.head != nullptr) {
    for (Parameter* p : m.head->Parameters()) {
      m.params.push_back(p);
    }
  }
  return m;
}

void ModelState::SetCompute(const ComputeContext* compute) {
  if (encoder != nullptr) {
    encoder->set_compute(compute);
  }
  if (decoder != nullptr) {
    decoder->set_compute(compute);
  }
  if (head != nullptr) {
    head->set_compute(compute);
  }
  weight_opt->set_compute(compute);
}

GnnPlan ModelState::SamplePlan(const std::vector<int64_t>& nodes, uint64_t seed,
                               const NeighborIndex& index) const {
  if (dense_sampler != nullptr) {
    DenseBatch batch = dense_sampler->SampleSeeded(nodes, seed, &index);
    batch.FinalizeForDevice();
    return PlanFromDense(std::move(batch));
  }
  MG_CHECK_MSG(layerwise_sampler != nullptr, "SamplePlan requires a GNN");
  return PlanFromBlocks(layerwise_sampler->SampleSeeded(nodes, seed, &index));
}

Tensor ModelState::InferReprs(
    const std::vector<int64_t>& nodes, uint64_t sample_seed,
    const NeighborIndex& index,
    const std::function<Tensor(const std::vector<int64_t>&)>& gather,
    const ComputeContext* compute) const {
  if (!has_gnn()) {
    return gather(nodes);
  }
  GnnPlan plan = SamplePlan(nodes, sample_seed, index);
  return encoder->InferForward(plan, gather(plan.input_nodes), compute);
}

Tensor ModelState::InferLogits(
    const std::vector<int64_t>& nodes, uint64_t sample_seed,
    const NeighborIndex& index,
    const std::function<Tensor(const std::vector<int64_t>&)>& gather,
    const ComputeContext* compute) const {
  MG_CHECK_MSG(head != nullptr, "InferLogits requires a node-classification model");
  Tensor reprs = InferReprs(nodes, sample_seed, index, gather, compute);
  return head->InferForward(reprs, compute);
}

}  // namespace mariusgnn
