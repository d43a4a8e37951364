#include "src/graph/neighbor_index.h"

#include "src/util/check.h"

namespace mariusgnn {

template <typename ForEachEdge>
void NeighborIndex::Build(const ForEachEdge& for_each_edge) {
  const size_t n = static_cast<size_t>(num_nodes_);
  // Counts land two slots up, so after the prefix sum offsets[v + 1] is v's first
  // slot and serves as its scatter cursor. The scatter leaves it at v's end, which
  // is v + 1's first slot, and the spare last slot is dropped.
  out_offsets_.assign(n + 2, 0);
  in_offsets_.assign(n + 2, 0);
  for_each_edge([this](int64_t src, int64_t dst) {
    MG_DCHECK(src >= 0 && src < num_nodes_ && dst >= 0 && dst < num_nodes_);
    ++out_offsets_[static_cast<size_t>(src) + 2];
    ++in_offsets_[static_cast<size_t>(dst) + 2];
  });
  for (size_t i = 2; i < n + 2; ++i) {
    out_offsets_[i] += out_offsets_[i - 1];
    in_offsets_[i] += in_offsets_[i - 1];
  }
  num_edges_ = out_offsets_[n + 1];
  by_src_.reset(new int64_t[static_cast<size_t>(num_edges_)]);
  by_dst_.reset(new int64_t[static_cast<size_t>(num_edges_)]);
  for_each_edge([this](int64_t src, int64_t dst) {
    by_src_[static_cast<size_t>(out_offsets_[static_cast<size_t>(src) + 1]++)] = dst;
    by_dst_[static_cast<size_t>(in_offsets_[static_cast<size_t>(dst) + 1]++)] = src;
  });
  out_offsets_.pop_back();
  in_offsets_.pop_back();
}

NeighborIndex::NeighborIndex(int64_t num_nodes, const std::vector<Edge>& edges)
    : num_nodes_(num_nodes) {
  Build([&edges](const auto& fn) {
    for (const Edge& e : edges) {
      fn(e.src, e.dst);
    }
  });
}

NeighborIndex::NeighborIndex(const Graph& graph, const Partitioning& partitioning,
                             const std::vector<int32_t>& partitions)
    : num_nodes_(graph.num_nodes()) {
  Build([&](const auto& fn) {
    for (int32_t a : partitions) {
      for (int32_t b : partitions) {
        for (int64_t e : partitioning.Bucket(a, b)) {
          const Edge& edge = graph.edge(e);
          fn(edge.src, edge.dst);
        }
      }
    }
  });
}

int64_t NeighborIndex::SampleDirection(int64_t node, int64_t fanout, bool outgoing,
                                       Rng& rng, PickScratch& picks,
                                       std::vector<int64_t>& out) const {
  const int64_t* pool = outgoing ? by_src_.get() : by_dst_.get();
  const std::vector<int64_t>& offsets = outgoing ? out_offsets_ : in_offsets_;
  const int64_t begin = offsets[static_cast<size_t>(node)];
  const int64_t end = offsets[static_cast<size_t>(node) + 1];
  const int64_t degree = end - begin;
  if (degree == 0) {
    return 0;
  }
  if (fanout < 0 || degree <= fanout) {
    out.insert(out.end(), pool + begin, pool + end);
    return degree;
  }
  for (int64_t p : rng.SampleWithoutReplacement(degree, fanout, &picks)) {
    out.push_back(pool[begin + p]);
  }
  return fanout;
}

int64_t NeighborIndex::SampleOneHop(int64_t node, int64_t fanout, EdgeDirection dir,
                                    Rng& rng, PickScratch& picks,
                                    std::vector<int64_t>& out) const {
  MG_DCHECK(node >= 0 && node < num_nodes_);
  int64_t count = 0;
  if (dir == EdgeDirection::kOutgoing || dir == EdgeDirection::kBoth) {
    count += SampleDirection(node, fanout, /*outgoing=*/true, rng, picks, out);
  }
  if (dir == EdgeDirection::kIncoming || dir == EdgeDirection::kBoth) {
    count += SampleDirection(node, fanout, /*outgoing=*/false, rng, picks, out);
  }
  return count;
}

std::vector<int64_t> NeighborIndex::AllNeighbors(int64_t node, EdgeDirection dir) const {
  std::vector<int64_t> out;
  Rng unused(0);
  PickScratch no_picks;
  SampleOneHop(node, /*fanout=*/-1, dir, unused, no_picks, out);
  return out;
}

}  // namespace mariusgnn
