#include "src/nn/encoder.h"

#include <algorithm>
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

// Algorithm 2 as index slicing. Layer j has dropped the groups Δ0..Δj-1 (rows
// [0, offsets[j]) of node_ids) and the neighbor segments of Δ1..Δj (the first
// offsets[j+1] - offsets[1] segments), so its view is the rest of nbr_offsets and
// repr_map, rebased to the first kept edge and the first kept row. Layer 0 drops
// nothing, so once the deeper layers have read them, its view takes both arrays
// as they are.
GnnPlan PlanFromDense(DenseBatch batch) {
  MG_CHECK(batch.num_deltas() >= 2);
  MG_CHECK(batch.repr_map.size() == batch.nbrs.size());
  const std::vector<int64_t>& offsets = batch.node_id_offsets;
  const std::vector<int64_t>& nbr_offsets = batch.nbr_offsets;
  const std::vector<int64_t>& repr_map = batch.repr_map;
  const int64_t num_segs = static_cast<int64_t>(nbr_offsets.size());
  const int64_t num_edges = batch.num_sampled_edges();
  MG_CHECK(num_segs == batch.num_output_nodes());
  GnnPlan plan;
  plan.layers.resize(static_cast<size_t>(batch.num_deltas() - 1));
  for (size_t j = 1; j < plan.layers.size(); ++j) {
    const int64_t row_base = offsets[j];
    const int64_t seg_skip = offsets[j + 1] - offsets[1];
    const int64_t edge_skip =
        seg_skip < num_segs ? nbr_offsets[static_cast<size_t>(seg_skip)] : num_edges;
    LayerView& view = plan.layers[j];
    view.self_begin = offsets[j + 1] - row_base;
    view.seg_offsets.resize(static_cast<size_t>(num_segs - seg_skip) + 1);
    std::transform(nbr_offsets.begin() + seg_skip, nbr_offsets.end(),
                   view.seg_offsets.begin(), [=](int64_t o) { return o - edge_skip; });
    view.seg_offsets.back() = num_edges - edge_skip;
    view.nbr_rows.resize(static_cast<size_t>(num_edges - edge_skip));
    std::transform(repr_map.begin() + edge_skip, repr_map.end(), view.nbr_rows.begin(),
                   [=](int64_t r) { return r - row_base; });
  }
  LayerView& first = plan.layers[0];
  first.self_begin = offsets[1];
  first.seg_offsets = std::move(batch.nbr_offsets);
  first.seg_offsets.push_back(num_edges);
  first.nbr_rows = std::move(batch.repr_map);
  plan.input_nodes = std::move(batch.node_ids);
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
    view.self_begin = 0;

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

Tensor GnnEncoder::ForwardImpl(GnnPlan& plan, Tensor h0, const ComputeContext* compute,
                               std::vector<Tensor>* inputs,
                               std::vector<std::unique_ptr<LayerContext>>* ctxs) const {
  MG_CHECK(static_cast<int64_t>(plan.layers.size()) == num_layers());
  MG_CHECK(h0.rows() == static_cast<int64_t>(plan.input_nodes.size()));
  // Drop the previous batch's state before this batch's layers allocate theirs.
  inputs->clear();
  inputs->resize(layers_.size());
  if (ctxs != nullptr) {
    ctxs->clear();
    ctxs->resize(layers_.size());
  }

  (*inputs)[0] = std::move(h0);
  Tensor out;
  for (size_t j = 0; j < layers_.size(); ++j) {
    LayerView& view = plan.layers[j];
    view.h = &(*inputs)[j];
    view.compute = compute;
    out = layers_[j]->Forward(std::move(view), ctxs != nullptr ? &(*ctxs)[j] : nullptr);
    if (ctxs == nullptr) {
      (*inputs)[j] = Tensor();  // no Backward will read it
    }
    if (j + 1 < layers_.size()) {
      (*inputs)[j + 1] = std::move(out);
    }
  }
  return out;
}

Tensor GnnEncoder::Forward(GnnPlan& plan, Tensor h0) {
  return ForwardImpl(plan, std::move(h0), compute_, &inputs_, &contexts_);
}

Tensor GnnEncoder::InferForward(GnnPlan& plan, Tensor h0,
                                const ComputeContext* compute) const {
  std::vector<Tensor> inputs;
  return ForwardImpl(plan, std::move(h0), compute, &inputs, nullptr);
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

Tensor GnnEncoder::Backward(Tensor grad_targets) {
  MG_CHECK(contexts_.size() == layers_.size());
  Tensor grad = std::move(grad_targets);
  const Tensor no_output;
  for (size_t j = layers_.size(); j-- > 0;) {
    // Layer j's output is layer j+1's input. The last output went to the caller,
    // and the last layer has no activation to read it (BuildGnnLayers).
    const Tensor& out = j + 1 < layers_.size() ? inputs_[j + 1] : no_output;
    grad = layers_[j]->Backward(*contexts_[j], out, std::move(grad), j > 0 || trains_inputs_);
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
