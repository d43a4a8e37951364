#include "src/graph/neighbor_index.h"

#include <algorithm>

#include "src/util/check.h"

namespace mariusgnn {

NeighborIndex::NeighborIndex(int64_t num_nodes, const std::vector<Edge>& edges)
    : num_nodes_(num_nodes) {
  const size_t n = static_cast<size_t>(num_nodes);
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges) {
    MG_DCHECK(e.src >= 0 && e.src < num_nodes && e.dst >= 0 && e.dst < num_nodes);
    ++out_offsets_[static_cast<size_t>(e.src) + 1];
    ++in_offsets_[static_cast<size_t>(e.dst) + 1];
  }
  for (size_t i = 1; i <= n; ++i) {
    out_offsets_[i] += out_offsets_[i - 1];
    in_offsets_[i] += in_offsets_[i - 1];
  }
  by_src_.resize(edges.size());
  by_dst_.resize(edges.size());
  std::vector<int64_t> out_cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  std::vector<int64_t> in_cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (const Edge& e : edges) {
    by_src_[static_cast<size_t>(out_cursor[static_cast<size_t>(e.src)]++)] =
        Neighbor{e.dst, e.rel};
    by_dst_[static_cast<size_t>(in_cursor[static_cast<size_t>(e.dst)]++)] =
        Neighbor{e.src, e.rel};
  }
}

int64_t NeighborIndex::SampleDirection(int64_t node, int64_t fanout, bool outgoing,
                                       Rng& rng, PickScratch& picks,
                                       std::vector<Neighbor>& out) const {
  const std::vector<Neighbor>& pool = outgoing ? by_src_ : by_dst_;
  const std::vector<int64_t>& offsets = outgoing ? out_offsets_ : in_offsets_;
  const int64_t begin = offsets[static_cast<size_t>(node)];
  const int64_t end = offsets[static_cast<size_t>(node) + 1];
  const int64_t degree = end - begin;
  if (degree == 0) {
    return 0;
  }
  if (fanout < 0 || degree <= fanout) {
    out.insert(out.end(), pool.begin() + begin, pool.begin() + end);
    return degree;
  }
  for (int64_t p : rng.SampleWithoutReplacement(degree, fanout, &picks)) {
    out.push_back(pool[static_cast<size_t>(begin + p)]);
  }
  return fanout;
}

int64_t NeighborIndex::SampleOneHop(int64_t node, int64_t fanout, EdgeDirection dir,
                                    Rng& rng, PickScratch& picks,
                                    std::vector<Neighbor>& out) const {
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

std::vector<Neighbor> NeighborIndex::AllNeighbors(int64_t node, EdgeDirection dir) const {
  std::vector<Neighbor> out;
  Rng unused(0);
  PickScratch no_picks;
  SampleOneHop(node, /*fanout=*/-1, dir, unused, no_picks, out);
  return out;
}

}  // namespace mariusgnn
