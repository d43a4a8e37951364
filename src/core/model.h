// The shared model object behind both trainers and the serving tier.
//
// ModelState owns everything that defines "the model" for one task: the GNN
// encoder, the task head (link-prediction decoder or node-classification linear
// layer), the weight optimizer, the Parameters() list in checkpoint section
// order, and the neighborhood sampler. Both trainers construct one through
// ModelState::Build — so the two cannot drift — and the inference server loads
// checkpoint parameters into one and drives the const path (SamplePlan /
// InferReprs) that never mutates shared state, making a single ModelState safe
// for concurrent readers.
#ifndef SRC_CORE_MODEL_H_
#define SRC_CORE_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/neighbor_index.h"
#include "src/nn/decoder.h"
#include "src/nn/encoder.h"
#include "src/nn/linear.h"
#include "src/nn/optimizer.h"
#include "src/sampler/dense.h"
#include "src/sampler/layerwise.h"
#include "src/util/compute.h"
#include "src/util/rng.h"

namespace mariusgnn {

enum class SamplerKind {
  kDense,      // MariusGNN: DENSE with one-hop sample reuse (Algorithm 1)
  kLayerwise,  // baseline: DGL/PyG-style per-layer resampling into bipartite blocks
};

enum class TaskKind { kLinkPrediction, kNodeClassification };

// The checkpoint `kind` tag for a task ("link_prediction" / "node_classification").
const char* CheckpointKindName(TaskKind kind);

// Everything needed to build the model, independent of how it is trained (the
// storage/pipeline/checkpoint knobs stay in TrainingConfig; see
// TrainingConfig::model_config()).
struct ModelConfig {
  GnnLayerType layer_type = GnnLayerType::kGraphSage;
  std::vector<int64_t> fanouts;  // per hop, ordered away from targets; empty = no GNN
  std::vector<int64_t> dims;     // dims[0] = base representation width
  EdgeDirection direction = EdgeDirection::kBoth;
  std::string decoder = "distmult";  // link prediction only
  SamplerKind sampler = SamplerKind::kDense;
  float weight_lr = 0.01f;  // Adagrad on GNN/decoder/head weights
  uint64_t seed = 7;

  int64_t num_layers() const { return static_cast<int64_t>(fanouts.size()); }
};

struct ModelState {
  TaskKind kind = TaskKind::kLinkPrediction;
  ModelConfig config;

  // Set when num_layers > 0, for either sampler; null for decoder-only link
  // prediction.
  std::unique_ptr<GnnEncoder> encoder;
  std::unique_ptr<Decoder> decoder;   // link prediction
  std::unique_ptr<LinearLayer> head;  // node classification
  std::unique_ptr<Adagrad> weight_opt;
  // Encoder then task-head parameters, in the order checkpoint sections use
  // ("param<i>.value"/"param<i>.state"). Pointers stay valid across moves: they
  // point into the unique_ptr-owned components.
  std::vector<Parameter*> params;

  // The one sampler config.sampler names (both null without a GNN).
  std::unique_ptr<DenseSampler> dense_sampler;
  std::unique_ptr<LayerwiseSampler> layerwise_sampler;

  // Task-specific config/graph compatibility checks (aborts with a clear message).
  static void ValidateConfig(TaskKind kind, const Graph& graph,
                             const ModelConfig& config);

  // Builds the model for `kind`, drawing initial weights from `rng` in a fixed
  // order (encoder, then decoder/head) so trainer trajectories are reproducible.
  static ModelState Build(TaskKind kind, const Graph& graph,
                          const ModelConfig& config, Rng& rng);

  // Threads the stage-3 compute handle through every component that runs kernels
  // (training path; the const inference entry points take their own handle).
  void SetCompute(const ComputeContext* compute);

  bool has_gnn() const { return encoder != nullptr; }
  int64_t out_dim() const { return config.dims.back(); }

  // Samples the k-hop neighborhood of `nodes` over `index`, entirely derived
  // from `seed` (never the samplers' internal RNG or index pointer), and lowers
  // it to the encoder's plan (PlanFromDense / PlanFromBlocks). Const and pure:
  // the trainers call it from pipeline stage 1 and InferReprs from evaluation
  // and serving threads. Requires has_gnn().
  GnnPlan SamplePlan(const std::vector<int64_t>& nodes, uint64_t seed,
                     const NeighborIndex& index) const;

  // The sample seed of a training batch: MixSeed(batch_seed, 2) for DENSE and
  // MixSeed(batch_seed, 3) for layer-wise (the negatives use salt 1).
  uint64_t TrainingSampleSeed(uint64_t batch_seed) const {
    return MixSeed(batch_seed, config.sampler == SamplerKind::kDense ? 2 : 3);
  }

  // --- Const inference path (shared by trainer evaluation and the server) ---
  //
  // SamplePlan with `sample_seed`, gathers base representations through
  // `gather` (rows align with the plan's input nodes), and runs the
  // inference-only forward. Bitwise-pure: the same (model state, nodes, seed,
  // index) always produces the same bits, and no shared state is written, so
  // concurrent calls are safe.
  Tensor InferReprs(const std::vector<int64_t>& nodes, uint64_t sample_seed,
                    const NeighborIndex& index,
                    const std::function<Tensor(const std::vector<int64_t>&)>& gather,
                    const ComputeContext* compute) const;

  // Node-classification logits: InferReprs through the linear head.
  Tensor InferLogits(const std::vector<int64_t>& nodes, uint64_t sample_seed,
                     const NeighborIndex& index,
                     const std::function<Tensor(const std::vector<int64_t>&)>& gather,
                     const ComputeContext* compute) const;
};

}  // namespace mariusgnn

#endif  // SRC_CORE_MODEL_H_
