#include "src/nn/encoder.h"

#include <numeric>
#include <utility>

#include "src/nn/gat.h"
#include "src/nn/gcn.h"
#include "src/nn/graphsage.h"
#include "src/util/check.h"

namespace mariusgnn {

std::vector<std::unique_ptr<GnnLayer>> BuildGnnLayers(GnnLayerType type,
                                                      const std::vector<int64_t>& dims,
                                                      Activation hidden_act, Rng& rng) {
  MG_CHECK(dims.size() >= 2);
  std::vector<std::unique_ptr<GnnLayer>> layers;
  for (size_t j = 0; j + 1 < dims.size(); ++j) {
    const Activation act = (j + 2 < dims.size()) ? hidden_act : Activation::kNone;
    switch (type) {
      case GnnLayerType::kGraphSage:
        layers.push_back(std::make_unique<GraphSageLayer>(dims[j], dims[j + 1], act, rng));
        break;
      case GnnLayerType::kGcn:
        layers.push_back(std::make_unique<GcnLayer>(dims[j], dims[j + 1], act, rng));
        break;
      case GnnLayerType::kGat:
        layers.push_back(std::make_unique<GatLayer>(dims[j], dims[j + 1], act, rng));
        break;
    }
  }
  return layers;
}

GnnPlan PlanFromDense(DenseBatch batch) {
  MG_CHECK(batch.num_deltas() >= 2);
  MG_CHECK(batch.repr_map.size() == batch.nbrs.size());
  GnnPlan plan;
  plan.input_nodes = batch.node_ids;
  plan.layers.resize(static_cast<size_t>(batch.num_deltas() - 1));
  for (size_t j = 0; j < plan.layers.size(); ++j) {
    LayerView& view = plan.layers[j];
    const int64_t out_begin = batch.node_id_offsets[1];
    view.self_rows.resize(static_cast<size_t>(batch.num_nodes() - out_begin));
    std::iota(view.self_rows.begin(), view.self_rows.end(), out_begin);
    view.seg_offsets = batch.SegmentOffsets();
    if (j + 1 == plan.layers.size()) {
      view.nbr_rows = std::move(batch.repr_map);
    } else {
      // AdvanceLayer rewrites the batch's repr_map, so earlier layers keep a copy.
      view.nbr_rows = batch.repr_map;
      batch.AdvanceLayer();
    }
  }
  return plan;
}

// The per-layer format conversion baseline systems perform before aggregation:
// a single-pass counting sort of the block's edges by destination.
GnnPlan PlanFromBlocks(const LayerwiseSample& sample) {
  GnnPlan plan;
  plan.input_nodes = sample.input_nodes();
  plan.layers.resize(sample.blocks.size());
  for (size_t j = 0; j < sample.blocks.size(); ++j) {
    const LayerBlock& block = sample.blocks[j];
    LayerView& view = plan.layers[j];
    const int64_t num_dst = static_cast<int64_t>(block.dst_nodes.size());
    view.self_rows.resize(static_cast<size_t>(num_dst));
    std::iota(view.self_rows.begin(), view.self_rows.end(), 0);

    std::vector<int64_t> counts(static_cast<size_t>(num_dst) + 1, 0);
    for (int64_t d : block.edge_dst) {
      ++counts[static_cast<size_t>(d) + 1];
    }
    for (size_t i = 1; i < counts.size(); ++i) {
      counts[i] += counts[i - 1];
    }
    std::vector<int64_t> cursor(counts.begin(), counts.end() - 1);
    view.seg_offsets = std::move(counts);
    view.nbr_rows.resize(block.edge_dst.size());
    for (size_t e = 0; e < block.edge_dst.size(); ++e) {
      const int64_t pos = cursor[static_cast<size_t>(block.edge_dst[e])]++;
      view.nbr_rows[static_cast<size_t>(pos)] = block.edge_src[e];
    }
  }
  return plan;
}

Tensor GnnEncoder::ForwardImpl(GnnPlan& plan, const Tensor& h0,
                               const ComputeContext* compute,
                               std::vector<std::unique_ptr<LayerContext>>* ctxs) const {
  MG_CHECK(static_cast<int64_t>(plan.layers.size()) == num_layers());
  MG_CHECK(h0.rows() == static_cast<int64_t>(plan.input_nodes.size()));
  ctxs->clear();
  ctxs->resize(layers_.size());

  Tensor h;
  for (size_t j = 0; j < layers_.size(); ++j) {
    LayerView& view = plan.layers[j];
    view.h = j == 0 ? &h0 : &h;
    view.compute = compute;
    h = layers_[j]->Forward(std::move(view), &(*ctxs)[j]);
  }
  return h;
}

Tensor GnnEncoder::Forward(GnnPlan& plan, const Tensor& h0) {
  return ForwardImpl(plan, h0, compute_, &contexts_);
}

Tensor GnnEncoder::InferForward(GnnPlan& plan, const Tensor& h0,
                                const ComputeContext* compute) const {
  std::vector<std::unique_ptr<LayerContext>> scratch;
  return ForwardImpl(plan, h0, compute, &scratch);
}

Tensor GnnEncoder::Forward(DenseBatch& batch, const Tensor& h0) {
  GnnPlan plan = PlanFromDense(std::move(batch));
  return Forward(plan, h0);
}

Tensor GnnEncoder::InferForward(DenseBatch& batch, const Tensor& h0,
                                const ComputeContext* compute) const {
  GnnPlan plan = PlanFromDense(std::move(batch));
  return InferForward(plan, h0, compute);
}

Tensor GnnEncoder::Backward(const Tensor& grad_targets) {
  MG_CHECK(contexts_.size() == layers_.size());
  Tensor grad = grad_targets;
  for (size_t j = layers_.size(); j-- > 0;) {
    grad = layers_[j]->Backward(*contexts_[j], grad, j > 0 || trains_inputs_);
  }
  return grad;
}

std::vector<Parameter*> GnnEncoder::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

}  // namespace mariusgnn
