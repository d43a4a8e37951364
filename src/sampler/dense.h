// DENSE — Delta Encoding of Neighborhood SamplEs (Section 4 of the paper).
//
// A DenseBatch holds the four arrays of the paper's Figure 3 plus the repr_map added at
// device-transfer time:
//
//   node_id_offsets : start of each delta group within node_ids. Groups are ordered
//                     Δ0, Δ1, ..., Δk (deepest hop first, targets last).
//   node_ids        : all *unique* graph node ids in the sample, grouped by delta.
//   nbr_offsets     : for each node in Δ1..Δk (in node_ids order, skipping Δ0), the
//                     start of its one-hop sample within nbrs.
//   nbrs            : sampled one-hop neighbor node ids, stored contiguously per node.
//   repr_map        : for each entry of nbrs, the row of that node id within node_ids
//                     (equivalently within the representation matrix H).
//
// Both node-id dedups, the Δ sets while sampling and repr_map in FinalizeForDevice,
// use a NodeRowMap (src/util/node_row_map.h) built on the stack of the call and sized
// to the sample: O(sample) memory, never O(|V|), and no state kept across calls.
//
// DenseSampler::SampleSeeded implements Algorithm 1 (one-hop samples are taken once
// per node and reused across layers). Algorithm 2 (the on-device slicing that discards
// the deepest delta after each GNN layer) is index arithmetic on the finalized batch:
// PlanFromDense (src/nn/encoder.h) computes every layer's view from these arrays
// without rewriting them.
#ifndef SRC_SAMPLER_DENSE_H_
#define SRC_SAMPLER_DENSE_H_

#include <cstdint>
#include <vector>

#include "src/graph/neighbor_index.h"

namespace mariusgnn {

struct DenseBatch {
  std::vector<int64_t> node_id_offsets;
  std::vector<int64_t> node_ids;
  std::vector<int64_t> nbr_offsets;
  std::vector<int64_t> nbrs;
  // Filled by FinalizeForDevice().
  std::vector<int64_t> repr_map;

  int64_t num_deltas() const { return static_cast<int64_t>(node_id_offsets.size()); }
  int64_t num_nodes() const { return static_cast<int64_t>(node_ids.size()); }
  int64_t num_sampled_edges() const { return static_cast<int64_t>(nbrs.size()); }

  // Row range of delta group g within node_ids.
  int64_t DeltaBegin(int64_t g) const { return node_id_offsets[static_cast<size_t>(g)]; }
  int64_t DeltaEnd(int64_t g) const {
    return g + 1 < num_deltas() ? node_id_offsets[static_cast<size_t>(g) + 1] : num_nodes();
  }

  // Target nodes are the last delta group (Δk).
  int64_t num_targets() const { return DeltaEnd(num_deltas() - 1) - DeltaBegin(num_deltas() - 1); }

  // Nodes that own neighbor segments: node_ids[offsets[1]:], the output rows of the
  // first GNN layer.
  int64_t num_output_nodes() const { return num_nodes() - node_id_offsets[1]; }

  // Builds repr_map: the node_ids row of every nbrs entry, through one NodeRowMap
  // over node_ids. Call once after sampling, before the first layer ("transfer to
  // device"). Aborts if an nbrs entry is not in node_ids.
  void FinalizeForDevice();
};

// Multi-hop sampler implementing Algorithm 1. Stateless: it holds only the fanouts and
// the direction, so one const sampler serves every pipeline worker, evaluation and
// serving thread.
class DenseSampler {
 public:
  // fanouts[h] is the max neighbors per node at hop h+1 away from the targets (the
  // paper's "30, 20, 10 ordered away from the target nodes" convention). When dir is
  // kBoth, up to fanouts[h] neighbors are drawn from each direction.
  DenseSampler(std::vector<int64_t> fanouts, EdgeDirection dir);

  // Samples the k-hop neighborhood of unique `target_nodes` over `index` and returns
  // the DENSE arrays (repr_map not yet finalized). The whole sample is derived from
  // `batch_seed` alone, so pipeline workers produce identical batches for any worker
  // count (see training_pipeline.h).
  DenseBatch SampleSeeded(const std::vector<int64_t>& target_nodes, uint64_t batch_seed,
                          const NeighborIndex* index) const;

  int64_t num_layers() const { return static_cast<int64_t>(fanouts_.size()); }

 private:
  std::vector<int64_t> fanouts_;
  EdgeDirection dir_;
};

}  // namespace mariusgnn

#endif  // SRC_SAMPLER_DENSE_H_
