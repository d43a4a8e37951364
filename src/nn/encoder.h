// Multi-layer GNN encoders.
//
// GnnEncoder executes the paper's DENSE forward pass (Section 4.2): every layer reads
// the current DENSE state (repr_map + contiguous neighbor segments), computes output
// representations for node_ids[offsets[1]:], then AdvanceLayer() slices the structure
// (Algorithm 2) so the next layer runs the identical code path. Contexts saved per
// layer drive the manual backward pass down to d(H0).
//
// BlockEncoder executes the baseline per-block path over a LayerwiseSample: each block
// is converted to segment form on the fly (the CSR conversion baseline systems perform)
// and the same GnnLayer implementations are applied. It exists so the end-to-end
// baseline comparisons isolate the sampling/data-structure difference.
//
// Both encoders learn at construction whether their base representations are
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

class GnnEncoder {
 public:
  GnnEncoder(GnnLayerType type, const std::vector<int64_t>& dims, Activation hidden_act,
             Rng& rng, bool trains_inputs = true)
      : layers_(BuildGnnLayers(type, dims, hidden_act, rng)),
        trains_inputs_(trains_inputs) {}

  // Stage-3 parallel-compute handle threaded into every layer view (null = serial;
  // results are bitwise-identical either way — see src/util/compute.h).
  void set_compute(const ComputeContext* compute) { compute_ = compute; }

  // `batch` must be finalized (repr_map built); it is consumed (advanced) in place.
  // h0 rows align with batch.node_ids. Returns representations of the target nodes.
  Tensor Forward(DenseBatch& batch, const Tensor& h0);

  // Inference-only forward: identical math to Forward (bitwise), but saves no
  // backward state in the encoder, so a const encoder shared by concurrent
  // readers (the serving snapshot) stays immutable. `compute` overrides the
  // training-time handle (pass nullptr for serial).
  Tensor InferForward(DenseBatch& batch, const Tensor& h0,
                      const ComputeContext* compute) const;

  // Returns d loss / d h0, aligned with the original node_ids of the last Forward
  // (empty unless the encoder trains its inputs).
  Tensor Backward(const Tensor& grad_targets);

  std::vector<Parameter*> Parameters();

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  int64_t out_dim() const { return layers_.back()->out_dim(); }

 private:
  // Shared const forward pass: per-invocation state lands in *ctxs (sized to the
  // layer count by the caller), never in the encoder.
  Tensor ForwardImpl(DenseBatch& batch, const Tensor& h0,
                     const ComputeContext* compute,
                     std::vector<std::unique_ptr<LayerContext>>* ctxs) const;

  std::vector<std::unique_ptr<GnnLayer>> layers_;
  bool trains_inputs_;
  std::vector<std::unique_ptr<LayerContext>> contexts_;
  const ComputeContext* compute_ = nullptr;
};

class BlockEncoder {
 public:
  BlockEncoder(GnnLayerType type, const std::vector<int64_t>& dims, Activation hidden_act,
               Rng& rng, bool trains_inputs = true)
      : layers_(BuildGnnLayers(type, dims, hidden_act, rng)),
        trains_inputs_(trains_inputs) {}

  // Stage-3 parallel-compute handle (null = serial; results identical either way).
  void set_compute(const ComputeContext* compute) { compute_ = compute; }

  // h0 rows align with sample.input_nodes(). Returns target-node representations.
  Tensor Forward(const LayerwiseSample& sample, const Tensor& h0);

  // Inference-only forward (see GnnEncoder::InferForward).
  Tensor InferForward(const LayerwiseSample& sample, const Tensor& h0,
                      const ComputeContext* compute) const;

  // Returns d loss / d h0 (rows == input_nodes of the last Forward; empty unless
  // the encoder trains its inputs).
  Tensor Backward(const Tensor& grad_targets);

  std::vector<Parameter*> Parameters();

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  int64_t out_dim() const { return layers_.back()->out_dim(); }

 private:
  Tensor ForwardImpl(const LayerwiseSample& sample, const Tensor& h0,
                     const ComputeContext* compute,
                     std::vector<std::unique_ptr<LayerContext>>* ctxs) const;

  std::vector<std::unique_ptr<GnnLayer>> layers_;
  bool trains_inputs_;
  std::vector<std::unique_ptr<LayerContext>> contexts_;
  const ComputeContext* compute_ = nullptr;
};

}  // namespace mariusgnn

#endif  // SRC_NN_ENCODER_H_
