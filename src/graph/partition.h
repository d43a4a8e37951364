// Physical node partitions and edge buckets (Section 3 of the paper).
//
// The node-id space is split into p physical partitions. Edge bucket (i, j) is the set
// of edges whose source lies in partition i and destination in partition j; a bucket's
// edge ids are stored contiguously, in one counting-sorted array for all p * p
// buckets, so a bucket is read as one sequential slice.
//
// Two assignment modes:
//  - kRandom: nodes are assigned to partitions by a random permutation (link prediction
//    and the COMET policy).
//  - kTrainingNodesFirst: labeled training nodes are packed sequentially into the first
//    partitions; the remainder is random (the node-classification caching policy of
//    Section 5.2).
#ifndef SRC_GRAPH_PARTITION_H_
#define SRC_GRAPH_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace mariusgnn {

enum class PartitionAssignment { kRandom, kTrainingNodesFirst };

// A read-only slice of edge ids, for range-for.
class EdgeIdRange {
 public:
  EdgeIdRange(const int64_t* begin, const int64_t* end) : begin_(begin), end_(end) {}
  const int64_t* begin() const { return begin_; }
  const int64_t* end() const { return end_; }
  int64_t size() const { return end_ - begin_; }

 private:
  const int64_t* begin_;
  const int64_t* end_;
};

class Partitioning {
 public:
  Partitioning() = default;

  // Splits `graph`'s nodes into `num_partitions` near-equal partitions and groups edge
  // indices into buckets. For kTrainingNodesFirst, graph.train_nodes() are packed first.
  Partitioning(const Graph& graph, int32_t num_partitions, PartitionAssignment mode,
               Rng& rng);

  int32_t num_partitions() const { return p_; }

  int32_t PartitionOf(int64_t node) const {
    return part_of_node_[static_cast<size_t>(node)];
  }

  // Index of `node` within its partition's node list (embedding-file row within the
  // partition's region).
  int64_t LocalIndexOf(int64_t node) const {
    return local_index_[static_cast<size_t>(node)];
  }

  const std::vector<int64_t>& NodesIn(int32_t partition) const {
    return nodes_per_partition_[static_cast<size_t>(partition)];
  }

  int64_t PartitionSize(int32_t partition) const {
    return static_cast<int64_t>(nodes_per_partition_[static_cast<size_t>(partition)].size());
  }

  // Number of training nodes packed at the front (kTrainingNodesFirst); the count of
  // partitions fully/partially occupied by training nodes.
  int32_t num_training_partitions() const { return num_training_partitions_; }

  // Edge indices (into graph.edges()) of bucket (i, j), ascending: a slice of the
  // one bucket-sorted edge-id array.
  EdgeIdRange Bucket(int32_t i, int32_t j) const {
    const size_t b = static_cast<size_t>(i) * static_cast<size_t>(p_) + static_cast<size_t>(j);
    const int64_t* ids = bucket_edges_.data();
    return EdgeIdRange(ids + bucket_offsets_[b], ids + bucket_offsets_[b + 1]);
  }

  int64_t BucketSize(int32_t i, int32_t j) const { return Bucket(i, j).size(); }

  // Total number of edges across all buckets (== graph.num_edges()).
  int64_t TotalEdges() const { return total_edges_; }

 private:
  int32_t p_ = 0;
  int32_t num_training_partitions_ = 0;
  int64_t total_edges_ = 0;
  std::vector<int32_t> part_of_node_;
  std::vector<int64_t> local_index_;
  std::vector<std::vector<int64_t>> nodes_per_partition_;
  // Bucket (i, j), row-major b = i * p_ + j, is
  // bucket_edges_[bucket_offsets_[b] .. bucket_offsets_[b + 1]).
  std::vector<int64_t> bucket_edges_;
  std::vector<int64_t> bucket_offsets_;
};

}  // namespace mariusgnn

#endif  // SRC_GRAPH_PARTITION_H_
