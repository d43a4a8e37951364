#include "src/nn/encoder.h"

#include <numeric>
#include <utility>

#include "src/nn/gat.h"
#include "src/nn/gcn.h"
#include "src/nn/graphsage.h"
#include "src/util/check.h"
#include "src/util/slot_remap.h"

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

Tensor GnnEncoder::ForwardImpl(DenseBatch& batch, const Tensor& h0,
                               const ComputeContext* compute,
                               std::vector<std::unique_ptr<LayerContext>>* ctxs) const {
  MG_CHECK(batch.num_deltas() == num_layers() + 1);
  MG_CHECK(h0.rows() == batch.num_nodes());
  MG_CHECK(batch.repr_map.size() == batch.nbrs.size());
  ctxs->clear();
  ctxs->resize(layers_.size());

  Tensor h = h0;
  for (size_t j = 0; j < layers_.size(); ++j) {
    LayerView view;
    view.h = &h;
    view.compute = compute;
    const int64_t out_begin = batch.node_id_offsets[1];
    view.self_rows.resize(static_cast<size_t>(batch.num_nodes() - out_begin));
    std::iota(view.self_rows.begin(), view.self_rows.end(), out_begin);
    // Each layer keeps its own copy of this layer's neighbour rows and offsets
    // (AdvanceLayer rewrites the batch's); the view moves them into it.
    view.nbr_rows = batch.repr_map;
    view.seg_offsets = batch.SegmentOffsets();
    Tensor out = layers_[j]->Forward(std::move(view), &(*ctxs)[j]);
    if (j + 1 < layers_.size()) {
      batch.AdvanceLayer();
    }
    h = std::move(out);
  }
  return h;
}

Tensor GnnEncoder::Forward(DenseBatch& batch, const Tensor& h0) {
  return ForwardImpl(batch, h0, compute_, &contexts_);
}

Tensor GnnEncoder::InferForward(DenseBatch& batch, const Tensor& h0,
                                const ComputeContext* compute) const {
  std::vector<std::unique_ptr<LayerContext>> scratch;
  return ForwardImpl(batch, h0, compute, &scratch);
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

namespace {

// Per-thread dst -> sparse-histogram-slot remap for the BlockToView counting sort
// (see slot_remap.h); rebuilt identically in both passes because claims follow the
// same edge order.
thread_local SlotRemap block_sort_remap;

// Converts a bipartite block to segment (CSR-by-dst) form: the per-layer format
// conversion baseline systems perform before aggregation. The counting sort runs
// as a two-pass parallel sort over fixed edge chunks: pass 1 builds per-chunk
// histograms, a serial prefix turns them into per-chunk cursors, and pass 2 places
// edges through those cursors. Placement positions are exact integers — chunk c's
// cursor for dst d starts where chunks < c left off — so the output is identical
// to the serial single-pass sort for a null context and any pool size.
LayerView BlockToView(const LayerBlock& block, const Tensor& h,
                      const ComputeContext* cc) {
  LayerView view;
  view.h = &h;
  const int64_t num_dst = static_cast<int64_t>(block.dst_nodes.size());
  view.self_rows.resize(static_cast<size_t>(num_dst));
  std::iota(view.self_rows.begin(), view.self_rows.end(), 0);

  const int64_t num_edges = static_cast<int64_t>(block.edge_dst.size());
  std::vector<int64_t> counts(static_cast<size_t>(num_dst) + 1, 0);
  view.nbr_rows.resize(static_cast<size_t>(num_edges));
  const int64_t chunks = ComputeChunkCount(num_edges, kComputeGrainSortEdges);
  // Placement positions are exact integers, so the single-pass and two-pass sorts
  // are bitwise identical by construction — unlike the float kernels, branching on
  // the context here cannot break the determinism contract. Take the cheaper
  // single-pass sort whenever there is no pool to fan the two passes out to.
  if (cc == nullptr || cc->pool == nullptr || chunks <= 1) {
    for (int64_t d : block.edge_dst) {
      ++counts[static_cast<size_t>(d) + 1];
    }
    for (size_t i = 1; i < counts.size(); ++i) {
      counts[i] += counts[i - 1];
    }
    view.seg_offsets = counts;
    std::vector<int64_t> cursor(counts.begin(), counts.end() - 1);
    for (int64_t e = 0; e < num_edges; ++e) {
      const int64_t pos = cursor[static_cast<size_t>(block.edge_dst[static_cast<size_t>(e)])]++;
      view.nbr_rows[static_cast<size_t>(pos)] = block.edge_src[static_cast<size_t>(e)];
    }
    return view;
  }

  // Pass 1: per-chunk SPARSE dst histograms — touched dsts in first-occurrence
  // order plus parallel counts (disjoint writes — each chunk owns its vectors).
  // Sparse rather than num_dst-wide so the serial combine below costs
  // O(num_dst + total touched) instead of O(chunks x num_dst), which would exceed
  // the old serial sort once blocks have more destinations than one chunk's edges.
  std::vector<std::vector<int64_t>> chunk_dsts(static_cast<size_t>(chunks));
  std::vector<std::vector<int64_t>> chunk_counts(static_cast<size_t>(chunks));
  ForEachChunk(cc, num_edges, kComputeGrainSortEdges,
               [&](int64_t chunk, int64_t begin, int64_t end) {
                 SlotRemap& remap = block_sort_remap;
                 remap.NextGeneration(num_dst);
                 std::vector<int64_t>& dsts = chunk_dsts[static_cast<size_t>(chunk)];
                 std::vector<int64_t>& local = chunk_counts[static_cast<size_t>(chunk)];
                 for (int64_t e = begin; e < end; ++e) {
                   const int32_t slot =
                       remap.Claim(block.edge_dst[static_cast<size_t>(e)], &dsts);
                   if (static_cast<size_t>(slot) == local.size()) {
                     local.push_back(0);
                   }
                   ++local[static_cast<size_t>(slot)];
                 }
               });
  // Serial combine: segment offsets, then per-chunk starting cursors — for dst d,
  // chunk c starts at offsets[d] plus everything chunks < c placed there.
  for (int64_t c = 0; c < chunks; ++c) {
    const std::vector<int64_t>& dsts = chunk_dsts[static_cast<size_t>(c)];
    const std::vector<int64_t>& local = chunk_counts[static_cast<size_t>(c)];
    for (size_t k = 0; k < dsts.size(); ++k) {
      counts[static_cast<size_t>(dsts[k]) + 1] += local[k];
    }
  }
  for (size_t i = 1; i < counts.size(); ++i) {
    counts[i] += counts[i - 1];
  }
  view.seg_offsets = counts;
  // Rewrite the sparse counts into per-chunk start cursors via one running
  // position array (ascending chunk order = serial placement order).
  std::vector<int64_t> pos(counts.begin(), counts.end() - 1);
  for (int64_t c = 0; c < chunks; ++c) {
    const std::vector<int64_t>& dsts = chunk_dsts[static_cast<size_t>(c)];
    std::vector<int64_t>& local = chunk_counts[static_cast<size_t>(c)];
    for (size_t k = 0; k < dsts.size(); ++k) {
      const int64_t count = local[k];
      local[k] = pos[static_cast<size_t>(dsts[k])];
      pos[static_cast<size_t>(dsts[k])] += count;
    }
  }
  // Pass 2: placement. Re-claiming in the same edge order reproduces pass 1's
  // slot assignment exactly, so each chunk advances its private sparse cursors
  // over disjoint output ranges.
  ForEachChunk(cc, num_edges, kComputeGrainSortEdges,
               [&](int64_t chunk, int64_t begin, int64_t end) {
                 SlotRemap& remap = block_sort_remap;
                 remap.NextGeneration(num_dst);
                 std::vector<int64_t> dsts;
                 std::vector<int64_t>& cursor = chunk_counts[static_cast<size_t>(chunk)];
                 for (int64_t e = begin; e < end; ++e) {
                   const int32_t slot =
                       remap.Claim(block.edge_dst[static_cast<size_t>(e)], &dsts);
                   const int64_t pos_e = cursor[static_cast<size_t>(slot)]++;
                   view.nbr_rows[static_cast<size_t>(pos_e)] =
                       block.edge_src[static_cast<size_t>(e)];
                 }
               });
  return view;
}

}  // namespace

Tensor BlockEncoder::ForwardImpl(const LayerwiseSample& sample, const Tensor& h0,
                                 const ComputeContext* compute,
                                 std::vector<std::unique_ptr<LayerContext>>* ctxs) const {
  MG_CHECK(static_cast<int64_t>(sample.blocks.size()) == num_layers());
  MG_CHECK(h0.rows() == sample.NumInputNodes());
  ctxs->clear();
  ctxs->resize(layers_.size());

  Tensor h = h0;
  for (size_t j = 0; j < layers_.size(); ++j) {
    LayerView view = BlockToView(sample.blocks[j], h, compute);
    view.compute = compute;
    Tensor out = layers_[j]->Forward(std::move(view), &(*ctxs)[j]);
    h = std::move(out);
  }
  return h;
}

Tensor BlockEncoder::Forward(const LayerwiseSample& sample, const Tensor& h0) {
  return ForwardImpl(sample, h0, compute_, &contexts_);
}

Tensor BlockEncoder::InferForward(const LayerwiseSample& sample, const Tensor& h0,
                                  const ComputeContext* compute) const {
  std::vector<std::unique_ptr<LayerContext>> scratch;
  return ForwardImpl(sample, h0, compute, &scratch);
}

Tensor BlockEncoder::Backward(const Tensor& grad_targets) {
  MG_CHECK(contexts_.size() == layers_.size());
  Tensor grad = grad_targets;
  for (size_t j = layers_.size(); j-- > 0;) {
    grad = layers_[j]->Backward(*contexts_[j], grad, j > 0 || trains_inputs_);
  }
  return grad;
}

std::vector<Parameter*> BlockEncoder::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

}  // namespace mariusgnn
