#include "src/sampler/dense.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/node_row_map.h"
#include "src/util/rng.h"

namespace mariusgnn {

void DenseBatch::FinalizeForDevice() {
  NodeRowMap row_of(num_nodes());
  for (size_t i = 0; i < node_ids.size(); ++i) {
    row_of.Emplace(node_ids[i], static_cast<int64_t>(i));
  }
  repr_map.resize(nbrs.size());
  for (size_t i = 0; i < nbrs.size(); ++i) {
    const int64_t row = row_of.Find(nbrs[i]);
    MG_CHECK_MSG(row >= 0, "nbr id missing from node_ids");
    repr_map[i] = row;
  }
}

DenseSampler::DenseSampler(std::vector<int64_t> fanouts, EdgeDirection dir)
    : fanouts_(std::move(fanouts)), dir_(dir) {
  MG_CHECK(!fanouts_.empty());
}

DenseBatch DenseSampler::SampleSeeded(const std::vector<int64_t>& target_nodes,
                                      uint64_t batch_seed,
                                      const NeighborIndex* index) const {
  MG_CHECK(index != nullptr);
  DenseBatch b;
  b.node_id_offsets = {0};
  b.node_ids = target_nodes;

  // Every node id in the sample so far; the rows are unused (set semantics).
  NodeRowMap in_sample(
      std::min(static_cast<int64_t>(target_nodes.size()) * 4, index->num_nodes()));
  for (int64_t v : target_nodes) {
    in_sample.Emplace(v, in_sample.size());
  }
  MG_CHECK_MSG(in_sample.size() == static_cast<int64_t>(target_nodes.size()),
               "target_nodes must be unique");

  std::vector<int64_t> delta = target_nodes;  // Δk
  PickScratch picks;

  // Loop i = k..1: sample one-hop neighbors for Δi (Algorithm 1, line 3).
  for (size_t hop = 0; hop < fanouts_.size(); ++hop) {
    const int64_t fanout = fanouts_[hop];
    const int64_t m = static_cast<int64_t>(delta.size());

    // Per-node sample sizes are deterministic: min(degree, fanout) per direction.
    std::vector<int64_t> starts(static_cast<size_t>(m) + 1, 0);
    for (int64_t j = 0; j < m; ++j) {
      const int64_t v = delta[static_cast<size_t>(j)];
      int64_t count = 0;
      if (dir_ == EdgeDirection::kOutgoing || dir_ == EdgeDirection::kBoth) {
        count += std::min(index->OutDegree(v), fanout);
      }
      if (dir_ == EdgeDirection::kIncoming || dir_ == EdgeDirection::kBoth) {
        count += std::min(index->InDegree(v), fanout);
      }
      starts[static_cast<size_t>(j) + 1] = starts[static_cast<size_t>(j)] + count;
    }
    const int64_t total = starts[static_cast<size_t>(m)];
    // Node j's draws append at starts[j]: each appends exactly its count above.
    std::vector<int64_t> hop_nbrs;
    hop_nbrs.reserve(static_cast<size_t>(total));

    for (int64_t j = 0; j < m; ++j) {
      Rng node_rng(MixSeed(batch_seed, static_cast<uint64_t>(hop) * 0x100000001ULL +
                                           static_cast<uint64_t>(j)));
      index->SampleOneHop(delta[static_cast<size_t>(j)], fanout, dir_, node_rng, picks,
                          hop_nbrs);
      MG_DCHECK(static_cast<int64_t>(hop_nbrs.size()) == starts[static_cast<size_t>(j) + 1]);
    }

    // Prepend this hop's samples (Algorithm 1, lines 5-6).
    {
      std::vector<int64_t> new_offsets;
      new_offsets.reserve(static_cast<size_t>(m) + b.nbr_offsets.size());
      new_offsets.insert(new_offsets.end(), starts.begin(), starts.end() - 1);
      for (int64_t o : b.nbr_offsets) {
        new_offsets.push_back(o + total);
      }
      b.nbr_offsets = std::move(new_offsets);

      std::vector<int64_t> new_nbrs;
      new_nbrs.reserve(hop_nbrs.size() + b.nbrs.size());
      new_nbrs.insert(new_nbrs.end(), hop_nbrs.begin(), hop_nbrs.end());
      new_nbrs.insert(new_nbrs.end(), b.nbrs.begin(), b.nbrs.end());
      b.nbrs = std::move(new_nbrs);
    }

    // Δi−1 = unique(Δi_nbrs) \ node_ids (Algorithm 1, line 7).
    std::vector<int64_t> next_delta;
    for (int64_t v : hop_nbrs) {
      if (in_sample.Emplace(v, in_sample.size()).second) {
        next_delta.push_back(v);
      }
    }

    // Prepend Δi−1 to node_ids and rebase offsets (Algorithm 1, lines 8-9).
    const int64_t added = static_cast<int64_t>(next_delta.size());
    for (auto& o : b.node_id_offsets) {
      o += added;
    }
    b.node_id_offsets.insert(b.node_id_offsets.begin(), 0);
    std::vector<int64_t> new_ids;
    new_ids.reserve(next_delta.size() + b.node_ids.size());
    new_ids.insert(new_ids.end(), next_delta.begin(), next_delta.end());
    new_ids.insert(new_ids.end(), b.node_ids.begin(), b.node_ids.end());
    b.node_ids = std::move(new_ids);

    delta = std::move(next_delta);
  }
  return b;
}

}  // namespace mariusgnn
