#include "src/core/model.h"

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
// The samplers use their own seed-derived streams (seed + 1) and draw nothing
// from `rng`.
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
    if (config.sampler == SamplerKind::kDense) {
      m.encoder = std::make_unique<GnnEncoder>(config.layer_type, config.dims,
                                               Activation::kRelu, rng, trains_inputs);
      m.dense_sampler = std::make_unique<DenseSampler>(nullptr, config.fanouts,
                                                       config.direction, config.seed + 1);
    } else {
      m.block_encoder = std::make_unique<BlockEncoder>(
          config.layer_type, config.dims, Activation::kRelu, rng, trains_inputs);
      m.layerwise_sampler = std::make_unique<LayerwiseSampler>(
          nullptr, config.fanouts, config.direction, config.seed + 1);
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
  } else if (m.block_encoder != nullptr) {
    m.params = m.block_encoder->Parameters();
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
  if (block_encoder != nullptr) {
    block_encoder->set_compute(compute);
  }
  if (decoder != nullptr) {
    decoder->set_compute(compute);
  }
  if (head != nullptr) {
    head->set_compute(compute);
  }
  weight_opt->set_compute(compute);
}

Tensor ModelState::InferReprs(
    const std::vector<int64_t>& nodes, uint64_t sample_seed,
    const NeighborIndex& index,
    const std::function<Tensor(const std::vector<int64_t>&)>& gather,
    const ComputeContext* compute) const {
  if (encoder != nullptr) {
    DenseBatch batch = dense_sampler->SampleSeeded(nodes, sample_seed, &index);
    batch.FinalizeForDevice();
    Tensor h0 = gather(batch.node_ids);
    return encoder->InferForward(batch, h0, compute);
  }
  if (block_encoder != nullptr) {
    LayerwiseSample sample = layerwise_sampler->SampleSeeded(nodes, sample_seed, &index);
    Tensor h0 = gather(sample.input_nodes());
    return block_encoder->InferForward(sample, h0, compute);
  }
  return gather(nodes);
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
