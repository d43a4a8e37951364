#include "src/graph/partition.h"

#include <algorithm>

#include "src/util/check.h"

namespace mariusgnn {

Partitioning::Partitioning(const Graph& graph, int32_t num_partitions,
                           PartitionAssignment mode, Rng& rng)
    : p_(num_partitions) {
  MG_CHECK(num_partitions > 0);
  const int64_t n = graph.num_nodes();
  MG_CHECK(n >= num_partitions);

  // Build the node order: either a full random permutation, or training nodes first
  // followed by shuffled non-training nodes.
  std::vector<int64_t> order;
  order.reserve(static_cast<size_t>(n));
  if (mode == PartitionAssignment::kTrainingNodesFirst) {
    std::vector<char> is_train(static_cast<size_t>(n), 0);
    for (int64_t v : graph.train_nodes()) {
      is_train[static_cast<size_t>(v)] = 1;
    }
    for (int64_t v : graph.train_nodes()) {
      order.push_back(v);
    }
    std::vector<int64_t> rest;
    rest.reserve(static_cast<size_t>(n) - order.size());
    for (int64_t v = 0; v < n; ++v) {
      if (is_train[static_cast<size_t>(v)] == 0) {
        rest.push_back(v);
      }
    }
    rng.Shuffle(rest);
    order.insert(order.end(), rest.begin(), rest.end());
  } else {
    for (int64_t v = 0; v < n; ++v) {
      order.push_back(v);
    }
    rng.Shuffle(order);
  }

  // Near-equal contiguous chunks of the order become partitions.
  part_of_node_.assign(static_cast<size_t>(n), 0);
  local_index_.assign(static_cast<size_t>(n), 0);
  nodes_per_partition_.assign(static_cast<size_t>(p_), {});
  const int64_t base = n / p_;
  const int64_t extra = n % p_;
  int64_t cursor = 0;
  for (int32_t part = 0; part < p_; ++part) {
    const int64_t size = base + (part < extra ? 1 : 0);
    auto& nodes = nodes_per_partition_[static_cast<size_t>(part)];
    nodes.reserve(static_cast<size_t>(size));
    for (int64_t k = 0; k < size; ++k) {
      const int64_t v = order[static_cast<size_t>(cursor + k)];
      part_of_node_[static_cast<size_t>(v)] = part;
      local_index_[static_cast<size_t>(v)] = k;
      nodes.push_back(v);
    }
    cursor += size;
  }

  if (mode == PartitionAssignment::kTrainingNodesFirst) {
    const int64_t train_count = static_cast<int64_t>(graph.train_nodes().size());
    int64_t covered = 0;
    int32_t parts = 0;
    while (covered < train_count && parts < p_) {
      covered += PartitionSize(parts);
      ++parts;
    }
    num_training_partitions_ = parts;
  }

  // Group edge ids into buckets: a counting sort by bucket that walks edges in id
  // order, so each bucket lists its ids ascending. Counts land two slots up, so
  // after the prefix sum bucket_offsets_[b + 1] is bucket b's scatter cursor, and
  // the scatter leaves it at b's end (the spare last slot is dropped).
  const auto& edges = graph.edges();
  const size_t num_buckets = static_cast<size_t>(p_) * static_cast<size_t>(p_);
  std::vector<uint32_t> bucket_of(edges.size());
  bucket_offsets_.assign(num_buckets + 2, 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    const size_t bi = static_cast<size_t>(part_of_node_[static_cast<size_t>(edges[i].src)]);
    const size_t bj = static_cast<size_t>(part_of_node_[static_cast<size_t>(edges[i].dst)]);
    bucket_of[i] = static_cast<uint32_t>(bi * static_cast<size_t>(p_) + bj);
    ++bucket_offsets_[bucket_of[i] + 2];
  }
  for (size_t b = 2; b < bucket_offsets_.size(); ++b) {
    bucket_offsets_[b] += bucket_offsets_[b - 1];
  }
  bucket_edges_.resize(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    bucket_edges_[static_cast<size_t>(bucket_offsets_[bucket_of[i] + 1]++)] =
        static_cast<int64_t>(i);
  }
  bucket_offsets_.pop_back();
  total_edges_ = graph.num_edges();
}

}  // namespace mariusgnn
