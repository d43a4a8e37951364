// The multi-layer GNN encoder, and the lowering of both samplers' output to the
// per-layer plan it runs.
//
// GnnEncoder runs a GnnPlan (src/nn/layer.h): layer j reads the plan's j-th view
// over the previous layer's output, and the contexts saved per layer drive the
// manual backward pass down to d(H0). The encoder never looks at a sample; all
// index work happens earlier, in pipeline stage 1, through one of two lowerings:
//  - PlanFromDense: the paper's DENSE execution (Section 4.2). Each layer's view is
//    the current DENSE state (repr_map + contiguous neighbor segments, outputs
//    node_ids[offsets[1]:]); AdvanceLayer() then slices the structure (Algorithm 2)
//    for the next layer.
//  - PlanFromBlocks: the baseline per-block path over a LayerwiseSample. Each block
//    is counting-sorted by destination into segment form, the CSR conversion
//    baseline systems perform, so the same layers apply and the end-to-end
//    comparisons isolate the sampling/data-structure difference.
//
// The encoder learns at construction whether its base representations are
// trained (`trains_inputs`). Link prediction trains its node embeddings and needs
// d(H0); node classification reads fixed features, so its first layer skips every
// input-gradient kernel and Backward returns an empty Tensor. Parameter gradients
// are bitwise the same either way.
#ifndef SRC_NN_ENCODER_H_
#define SRC_NN_ENCODER_H_

#include <memory>
#include <vector>

#include "src/nn/layer.h"
#include "src/sampler/dense.h"
#include "src/sampler/layerwise.h"
#include "src/util/rng.h"

namespace mariusgnn {

enum class GnnLayerType { kGraphSage, kGcn, kGat };

// Builds a stack of `dims.size()-1` layers; dims[0] is the base representation width.
// Hidden layers use `hidden_act`; the final layer uses kNone.
std::vector<std::unique_ptr<GnnLayer>> BuildGnnLayers(GnnLayerType type,
                                                      const std::vector<int64_t>& dims,
                                                      Activation hidden_act, Rng& rng);

// Lowers a finalized DENSE batch (repr_map built) to one view per layer;
// input_nodes is the batch's node_ids.
GnnPlan PlanFromDense(DenseBatch batch);

// Lowers a layer-wise sample to one view per block; input_nodes is the innermost
// block's src_nodes.
GnnPlan PlanFromBlocks(const LayerwiseSample& sample);

class GnnEncoder {
 public:
  GnnEncoder(GnnLayerType type, const std::vector<int64_t>& dims, Activation hidden_act,
             Rng& rng, bool trains_inputs = true)
      : layers_(BuildGnnLayers(type, dims, hidden_act, rng)),
        trains_inputs_(trains_inputs) {}

  // Stage-3 parallel-compute handle threaded into every layer view (null = serial;
  // results are bitwise-identical either way — see src/util/compute.h).
  void set_compute(const ComputeContext* compute) { compute_ = compute; }

  // h0 rows align with plan.input_nodes. Returns representations of the target
  // nodes. Consumes plan.layers (each view's index vectors move into its layer's
  // saved context); plan.input_nodes is left for the caller.
  Tensor Forward(GnnPlan& plan, const Tensor& h0);

  // Inference-only forward: identical math to Forward (bitwise), but saves no
  // backward state in the encoder, so a const encoder shared by concurrent
  // readers (the serving snapshot) stays immutable. `compute` overrides the
  // training-time handle (pass nullptr for serial).
  Tensor InferForward(GnnPlan& plan, const Tensor& h0,
                      const ComputeContext* compute) const;

  // One-line wrappers over PlanFromDense (`batch` is moved from). They remain
  // only for benchmark/replay.cc, which calls them and is kept unchanged.
  Tensor Forward(DenseBatch& batch, const Tensor& h0);
  Tensor InferForward(DenseBatch& batch, const Tensor& h0,
                      const ComputeContext* compute) const;

  // Returns d loss / d h0, aligned with the input_nodes of the last Forward
  // (empty unless the encoder trains its inputs).
  Tensor Backward(const Tensor& grad_targets);

  std::vector<Parameter*> Parameters();

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  int64_t out_dim() const { return layers_.back()->out_dim(); }

 private:
  // Shared const forward pass: per-invocation state lands in *ctxs, never in the
  // encoder.
  Tensor ForwardImpl(GnnPlan& plan, const Tensor& h0, const ComputeContext* compute,
                     std::vector<std::unique_ptr<LayerContext>>* ctxs) const;

  std::vector<std::unique_ptr<GnnLayer>> layers_;
  bool trains_inputs_;
  std::vector<std::unique_ptr<LayerContext>> contexts_;
  const ComputeContext* compute_ = nullptr;
};

}  // namespace mariusgnn

#endif  // SRC_NN_ENCODER_H_
