// GNN layer abstraction, and the per-layer plan every batch is lowered to.
//
// A LayerView describes one aggregation step over an input representation matrix h:
//  - self_begin    : output node s's own representation is row self_begin + s of
//                    h. Both planners put the outputs in one contiguous run of
//                    rows (DENSE: node_ids[offsets[1]:]; a block: its first |dst|
//                    rows), so layers read their self rows in place.
//  - nbr_rows[e]   : the row of h holding neighbor entry e's representation. For a
//                    DENSE batch this is exactly the repr_map array of the paper, and
//                    neighbor entries of each output node are contiguous.
//  - seg_offsets   : size num_outputs()+1; neighbor entries of output node s occupy
//                    nbr_rows[seg_offsets[s] .. seg_offsets[s+1]).
//
// A GnnPlan is a batch ready for the encoder: the node ids behind the rows of the
// base representations h0, plus one index-only LayerView per layer. Both samplers
// lower to it in pipeline stage 1 (PlanFromDense / PlanFromBlocks, encoder.h); the
// encoder fills in each view's h and compute handle as it runs the layers.
//
// Layers return the output representations for the view's output nodes. Backward
// consumes the gradient of the output, accumulates weight gradients into their
// Parameters and, when asked, produces the gradient w.r.t. h (all rows). A layer
// copies neither its input nor its output: its saved context points at *view.h,
// and Backward is handed the output Forward returned, so both must stay alive and
// unchanged in between (GnnEncoder keeps them; see encoder.h).
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
  int64_t self_begin = 0;
  std::vector<int64_t> nbr_rows;
  std::vector<int64_t> seg_offsets;
  // Stage-3 parallel-compute handle (may be null = serial). Layers save it in their
  // LayerContext so the backward pass runs with the same parallelism.
  const ComputeContext* compute = nullptr;

  int64_t num_outputs() const { return static_cast<int64_t>(seg_offsets.size()) - 1; }
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

// `pre` and `grad_out` are sinks, computed in place: a moved-in tensor comes back
// with no allocation, and kNone (every last layer) returns it untouched and never
// reads `out`.
Tensor ApplyActivation(Activation act, Tensor pre, const ComputeContext* ctx = nullptr);
Tensor ActivationBackward(Activation act, const Tensor& out, Tensor grad_out,
                          const ComputeContext* ctx = nullptr);

class GnnLayer {
 public:
  virtual ~GnnLayer() = default;

  // Computes output representations; fills *ctx with the state Backward needs.
  // Const: all invocation state goes into *ctx, never into the layer, so a shared
  // immutable layer stack (e.g. a serving snapshot) can run Forward concurrently.
  // The view is taken by value so its index vectors move into *ctx uncopied; *ctx
  // keeps a pointer to *view.h, which must outlive Backward.
  virtual Tensor Forward(LayerView view, std::unique_ptr<LayerContext>* ctx) const = 0;

  // Accumulates parameter gradients. With `input_grad`, returns d loss / d h (rows ==
  // the forward view's num_inputs()); without it, skips every input-gradient kernel
  // and returns an empty Tensor. Parameter gradients are bitwise the same either way.
  // `out` is the tensor the matching Forward returned; only the activation's
  // backward reads it, so a kNone layer may be passed an empty one. `grad_out` is
  // a sink: the activation's backward runs in place in it.
  virtual Tensor Backward(LayerContext& ctx, const Tensor& out, Tensor grad_out,
                          bool input_grad) = 0;

  virtual std::vector<Parameter*> Parameters() = 0;

  virtual int64_t in_dim() const = 0;
  virtual int64_t out_dim() const = 0;
};

}  // namespace mariusgnn

#endif  // SRC_NN_LAYER_H_
