// The in-memory one-hop sampling structure from Section 4.1 of the paper:
//
//   "We store two sorted versions of the in-memory edge list containing all edges
//    between the node partitions currently in memory: 1) sorted in ascending order of
//    source node ID, and 2) sorted in ascending order of destination node ID. We create
//    an array that, for each node ID in memory, stores the offsets corresponding to its
//    outgoing and incoming edges in each of the two edge lists."
//
// NeighborIndex is rebuilt whenever the partition buffer's contents change (each S_i)
// and supports parallel one-hop sampling of incoming and/or outgoing neighbors.
#ifndef SRC_GRAPH_NEIGHBOR_INDEX_H_
#define SRC_GRAPH_NEIGHBOR_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace mariusgnn {

// A sampled neighbor: the neighboring node plus the relation of the connecting edge.
struct Neighbor {
  int64_t node = 0;
  int32_t rel = 0;
};

enum class EdgeDirection { kOutgoing, kIncoming, kBoth };

class NeighborIndex {
 public:
  NeighborIndex() = default;

  // Builds the dual-sorted index over `edges` for node ids in [0, num_nodes). Counting
  // sort: O(|E| + |V|).
  NeighborIndex(int64_t num_nodes, const std::vector<Edge>& edges);

  // Convenience: index over a whole graph.
  explicit NeighborIndex(const Graph& graph)
      : NeighborIndex(graph.num_nodes(), graph.edges()) {}

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return static_cast<int64_t>(by_src_.size()); }

  int64_t OutDegree(int64_t node) const {
    return out_offsets_[static_cast<size_t>(node) + 1] - out_offsets_[static_cast<size_t>(node)];
  }
  int64_t InDegree(int64_t node) const {
    return in_offsets_[static_cast<size_t>(node) + 1] - in_offsets_[static_cast<size_t>(node)];
  }

  // Appends up to `fanout` one-hop neighbors of `node` in the given direction to `out`
  // and returns how many were appended. fanout < 0 means "all neighbors". When kBoth,
  // up to `fanout` neighbors are drawn from each direction. Sampling is without
  // replacement within a direction; `picks` is the caller's draw scratch, reused
  // across calls so a warm sampler allocates nothing per node.
  int64_t SampleOneHop(int64_t node, int64_t fanout, EdgeDirection dir, Rng& rng,
                       PickScratch& picks, std::vector<Neighbor>& out) const;

  // Full (unsampled) neighbor lists, for tests and full-neighborhood aggregation.
  std::vector<Neighbor> AllNeighbors(int64_t node, EdgeDirection dir) const;

 private:
  int64_t SampleDirection(int64_t node, int64_t fanout, bool outgoing, Rng& rng,
                          PickScratch& picks, std::vector<Neighbor>& out) const;

  int64_t num_nodes_ = 0;
  // by_src_[out_offsets_[v] .. out_offsets_[v+1]) are v's outgoing neighbors;
  // by_dst_[in_offsets_[v] .. in_offsets_[v+1]) are v's incoming neighbors.
  std::vector<Neighbor> by_src_;
  std::vector<Neighbor> by_dst_;
  std::vector<int64_t> out_offsets_;
  std::vector<int64_t> in_offsets_;
};

}  // namespace mariusgnn

#endif  // SRC_GRAPH_NEIGHBOR_INDEX_H_
