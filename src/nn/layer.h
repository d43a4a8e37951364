// GNN layer abstraction, and the per-layer plan every batch is lowered to.
//
// A LayerView describes one aggregation step over an input representation matrix h:
//  - self_rows[s]  : the row of h holding output node s's own representation.
//  - nbr_rows[e]   : the row of h holding neighbor entry e's representation. For a
//                    DENSE batch this is exactly the repr_map array of the paper, and
//                    neighbor entries of each output node are contiguous.
//  - seg_offsets   : size |self_rows|+1; neighbor entries of output node s occupy
//                    nbr_rows[seg_offsets[s] .. seg_offsets[s+1]).
//
// A GnnPlan is a batch ready for the encoder: the node ids behind the rows of the
// base representations h0, plus one index-only LayerView per layer. Both samplers
// lower to it in pipeline stage 1 (PlanFromDense / PlanFromBlocks, encoder.h); the
// encoder fills in each view's h and compute handle as it runs the layers.
//
// Layers return the output representations for the view's output nodes. Backward
// consumes the gradient of the output, accumulates weight gradients into their
// Parameters and, when asked, produces the gradient w.r.t. h (all rows).
#ifndef SRC_NN_LAYER_H_
#define SRC_NN_LAYER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/parameter.h"
#include "src/tensor/tensor.h"
#include "src/util/compute.h"

namespace mariusgnn {

struct LayerView {
  const Tensor* h = nullptr;
  std::vector<int64_t> self_rows;
  std::vector<int64_t> nbr_rows;
  std::vector<int64_t> seg_offsets;
  // Stage-3 parallel-compute handle (may be null = serial). Layers save it in their
  // LayerContext so the backward pass runs with the same parallelism.
  const ComputeContext* compute = nullptr;

  int64_t num_outputs() const { return static_cast<int64_t>(self_rows.size()); }
  int64_t num_inputs() const { return h->rows(); }
};

struct GnnPlan {
  std::vector<int64_t> input_nodes;  // node id of each h0 row
  std::vector<LayerView> layers;     // layers[0] runs first; h and compute unset
};

// Opaque per-invocation saved state; each layer derives its own. Forward copies the
// view's compute handle here so Backward parallelizes identically.
struct LayerContext {
  virtual ~LayerContext() = default;
  const ComputeContext* compute = nullptr;
};

enum class Activation { kNone, kRelu, kTanh };

Tensor ApplyActivation(Activation act, const Tensor& pre,
                       const ComputeContext* ctx = nullptr);
Tensor ActivationBackward(Activation act, const Tensor& out, const Tensor& grad_out,
                          const ComputeContext* ctx = nullptr);

class GnnLayer {
 public:
  virtual ~GnnLayer() = default;

  // Computes output representations; fills *ctx with the state Backward needs.
  // Const: all invocation state goes into *ctx, never into the layer, so a shared
  // immutable layer stack (e.g. a serving snapshot) can run Forward concurrently.
  // The view is taken by value so its index vectors move into *ctx uncopied.
  virtual Tensor Forward(LayerView view, std::unique_ptr<LayerContext>* ctx) const = 0;

  // Accumulates parameter gradients. With `input_grad`, returns d loss / d h (rows ==
  // the forward view's num_inputs()); without it, skips every input-gradient kernel
  // and returns an empty Tensor. Parameter gradients are bitwise the same either way.
  virtual Tensor Backward(LayerContext& ctx, const Tensor& grad_out, bool input_grad) = 0;

  virtual std::vector<Parameter*> Parameters() = 0;

  virtual int64_t in_dim() const = 0;
  virtual int64_t out_dim() const = 0;
};

}  // namespace mariusgnn

#endif  // SRC_NN_LAYER_H_
