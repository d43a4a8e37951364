// The in-memory one-hop sampling structure from Section 4.1 of the paper:
//
//   "We store two sorted versions of the in-memory edge list containing all edges
//    between the node partitions currently in memory: 1) sorted in ascending order of
//    source node ID, and 2) sorted in ascending order of destination node ID. We create
//    an array that, for each node ID in memory, stores the offsets corresponding to its
//    outgoing and incoming edges in each of the two edge lists."
//
// Each entry of the two lists is the neighboring node id only (8 bytes): no sampler,
// encoder or server reads an edge's relation through the index, so relations stay
// on `Graph`. A node's list keeps its edges in the order the index was built from.
//
// NeighborIndex is rebuilt whenever the partition buffer's contents change (each S_i)
// and supports parallel one-hop sampling of incoming and/or outgoing neighbors.
#ifndef SRC_GRAPH_NEIGHBOR_INDEX_H_
#define SRC_GRAPH_NEIGHBOR_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/partition.h"
#include "src/util/rng.h"

namespace mariusgnn {

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

  // The in-memory subgraph of partition set `partitions`: the edges of every bucket
  // (a, b) with a and b in the set, a-major, b-minor, ascending edge id within a
  // bucket. The same lists as indexing that edge sequence, with no copy of it.
  NeighborIndex(const Graph& graph, const Partitioning& partitioning,
                const std::vector<int32_t>& partitions);

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return num_edges_; }

  int64_t OutDegree(int64_t node) const {
    return out_offsets_[static_cast<size_t>(node) + 1] - out_offsets_[static_cast<size_t>(node)];
  }
  int64_t InDegree(int64_t node) const {
    return in_offsets_[static_cast<size_t>(node) + 1] - in_offsets_[static_cast<size_t>(node)];
  }

  // Appends up to `fanout` one-hop neighbor ids of `node` in the given direction to
  // `out` and returns how many were appended. fanout < 0 means "all neighbors". When
  // kBoth, up to `fanout` neighbors are drawn from each direction. Sampling is without
  // replacement within a direction; `picks` is the caller's draw scratch, reused
  // across calls so a warm sampler allocates nothing per node.
  int64_t SampleOneHop(int64_t node, int64_t fanout, EdgeDirection dir, Rng& rng,
                       PickScratch& picks, std::vector<int64_t>& out) const;

  // Full (unsampled) neighbor id lists, for tests and full-neighborhood aggregation.
  std::vector<int64_t> AllNeighbors(int64_t node, EdgeDirection dir) const;

 private:
  // Counting-sorts the edges that `for_each_edge(fn)` visits: it calls fn(src, dst)
  // once per edge, in the same order on each of its two calls.
  template <typename ForEachEdge>
  void Build(const ForEachEdge& for_each_edge);

  int64_t SampleDirection(int64_t node, int64_t fanout, bool outgoing, Rng& rng,
                          PickScratch& picks, std::vector<int64_t>& out) const;

  int64_t num_nodes_ = 0;
  int64_t num_edges_ = 0;
  // by_src_[out_offsets_[v] .. out_offsets_[v+1]) are v's outgoing neighbors;
  // by_dst_[in_offsets_[v] .. in_offsets_[v+1]) are v's incoming neighbors. Left
  // uninitialized until the scatter writes every entry.
  std::unique_ptr<int64_t[]> by_src_;
  std::unique_ptr<int64_t[]> by_dst_;
  std::vector<int64_t> out_offsets_;
  std::vector<int64_t> in_offsets_;
};

}  // namespace mariusgnn

#endif  // SRC_GRAPH_NEIGHBOR_INDEX_H_
