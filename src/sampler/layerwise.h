// Baseline multi-hop samplers, reimplemented for head-to-head comparison with DENSE.
//
// LayerwiseSampler reproduces the DGL/PyG sampling behaviour described in the paper's
// introduction and Figure 1: nodes appearing in the *same* layer are sampled once, but a
// node appearing in *different* layers has its one-hop neighborhood resampled for every
// layer. It emits per-layer bipartite blocks (DGL's "message flow graphs") whose
// aggregation requires edge-wise gather/scatter rather than contiguous segment kernels.
//
// TreeSampler reproduces NextDoor-style per-instance sampling (Table 7's comparison):
// every node *instance* in the frontier is expanded independently with no reuse and no
// dedup, so the sample grows as the product of the fanouts.
#ifndef SRC_SAMPLER_LAYERWISE_H_
#define SRC_SAMPLER_LAYERWISE_H_

#include <cstdint>
#include <vector>

#include "src/graph/neighbor_index.h"
#include "src/util/rng.h"

namespace mariusgnn {

// One bipartite layer block: dst nodes aggregate from src nodes along COO edges.
// src_nodes always begins with dst_nodes (self rows), matching DGL block layout.
struct LayerBlock {
  std::vector<int64_t> dst_nodes;
  std::vector<int64_t> src_nodes;
  std::vector<int64_t> edge_dst;  // index into dst_nodes
  std::vector<int64_t> edge_src;  // index into src_nodes

  int64_t num_edges() const { return static_cast<int64_t>(edge_dst.size()); }
};

struct LayerwiseSample {
  // blocks[0] is the innermost layer (consumed first in the forward pass); the last
  // block's dst_nodes are the mini-batch targets.
  std::vector<LayerBlock> blocks;

  // Unique base representations the batch needs (innermost block's src_nodes).
  const std::vector<int64_t>& input_nodes() const { return blocks.front().src_nodes; }

  int64_t TotalSampledEdges() const;
  // Unique nodes whose base representation must be transferred.
  int64_t NumInputNodes() const { return static_cast<int64_t>(input_nodes().size()); }
};

class LayerwiseSampler {
 public:
  LayerwiseSampler(const NeighborIndex* index, std::vector<int64_t> fanouts,
                   EdgeDirection dir, uint64_t seed = 29);

  LayerwiseSample Sample(const std::vector<int64_t>& target_nodes);

  // Deterministic, thread-safe variant: the whole sample is derived from
  // `batch_seed` alone (per-node RNG streams), so pipeline workers can share one
  // sampler and produce identical batches for any worker count.
  LayerwiseSample SampleSeeded(const std::vector<int64_t>& target_nodes,
                               uint64_t batch_seed) const {
    return SampleSeeded(target_nodes, batch_seed, index_);
  }

  // Explicit-index variant for callers that must not mutate shared sampler state
  // (the serving path: one const sampler, many concurrent readers).
  LayerwiseSample SampleSeeded(const std::vector<int64_t>& target_nodes,
                               uint64_t batch_seed,
                               const NeighborIndex* index) const;

  int64_t num_layers() const { return static_cast<int64_t>(fanouts_.size()); }

 private:
  const NeighborIndex* index_;
  std::vector<int64_t> fanouts_;
  EdgeDirection dir_;
  Rng rng_;
};

// NextDoor-style per-instance expansion; returns only size statistics since its cost is
// dominated by materialising the exponentially-growing sample.
struct TreeSampleStats {
  int64_t total_instances = 0;  // node instances across all levels (incl. targets)
  int64_t total_edges = 0;      // sampled edges (instances beyond level 0)
};

class TreeSampler {
 public:
  TreeSampler(const NeighborIndex* index, std::vector<int64_t> fanouts, EdgeDirection dir,
              uint64_t seed = 31);

  TreeSampleStats Sample(const std::vector<int64_t>& target_nodes);

 private:
  const NeighborIndex* index_;
  std::vector<int64_t> fanouts_;
  EdgeDirection dir_;
  Rng rng_;
};

}  // namespace mariusgnn

#endif  // SRC_SAMPLER_LAYERWISE_H_
