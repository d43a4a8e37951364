#include "src/sampler/dense.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/util/check.h"

namespace mariusgnn {

std::vector<int64_t> DenseBatch::SegmentOffsets() const {
  MG_CHECK(static_cast<int64_t>(nbr_offsets.size()) == num_output_nodes());
  std::vector<int64_t> closed;
  closed.reserve(nbr_offsets.size() + 1);
  closed.insert(closed.end(), nbr_offsets.begin(), nbr_offsets.end());
  closed.push_back(static_cast<int64_t>(nbrs.size()));
  return closed;
}

void DenseBatch::FinalizeForDevice() {
  std::unordered_map<int64_t, int64_t> row_of;
  row_of.reserve(node_ids.size() * 2);
  for (size_t i = 0; i < node_ids.size(); ++i) {
    row_of.emplace(node_ids[i], static_cast<int64_t>(i));
  }
  repr_map.resize(nbrs.size());
  for (size_t i = 0; i < nbrs.size(); ++i) {
    auto it = row_of.find(nbrs[i]);
    MG_CHECK_MSG(it != row_of.end(), "nbr id missing from node_ids");
    repr_map[i] = it->second;
  }
}

void DenseBatch::AdvanceLayer() {
  MG_CHECK(num_deltas() >= 2);
  MG_CHECK(repr_map.size() == nbrs.size());
  const int64_t delta_prev_len = node_id_offsets[1];                  // |Δi−1|
  const int64_t delta_i_len = DeltaEnd(1) - DeltaBegin(1);            // |Δi|
  // Δi's neighbor block is the first delta_i_len segments of nbrs.
  const int64_t drop_nbrs =
      delta_i_len < static_cast<int64_t>(nbr_offsets.size())
          ? nbr_offsets[static_cast<size_t>(delta_i_len)]
          : static_cast<int64_t>(nbrs.size());

  nbrs.erase(nbrs.begin(), nbrs.begin() + drop_nbrs);
  if (!nbr_rels.empty()) {
    nbr_rels.erase(nbr_rels.begin(), nbr_rels.begin() + drop_nbrs);
  }
  repr_map.erase(repr_map.begin(), repr_map.begin() + drop_nbrs);
  for (auto& r : repr_map) {
    r -= delta_prev_len;
    MG_DCHECK(r >= 0);
  }
  nbr_offsets.erase(nbr_offsets.begin(), nbr_offsets.begin() + delta_i_len);
  for (auto& o : nbr_offsets) {
    o -= drop_nbrs;
  }
  node_ids.erase(node_ids.begin(), node_ids.begin() + delta_prev_len);
  node_id_offsets.erase(node_id_offsets.begin());
  for (auto& o : node_id_offsets) {
    o -= delta_prev_len;
  }
}

DenseSampler::DenseSampler(const NeighborIndex* index, std::vector<int64_t> fanouts,
                           EdgeDirection dir, uint64_t seed)
    : index_(index), fanouts_(std::move(fanouts)), dir_(dir), rng_(seed) {
  MG_CHECK(!fanouts_.empty());
}

DenseBatch DenseSampler::Sample(const std::vector<int64_t>& target_nodes) {
  return SampleSeeded(target_nodes, rng_.Next());
}

DenseBatch DenseSampler::SampleSeeded(const std::vector<int64_t>& target_nodes,
                                      uint64_t batch_seed,
                                      const NeighborIndex* index) const {
  MG_CHECK(index != nullptr);
  DenseBatch b;
  b.node_id_offsets = {0};
  b.node_ids = target_nodes;

  std::unordered_set<int64_t> in_sample;
  in_sample.reserve(target_nodes.size() * 4);
  for (int64_t v : target_nodes) {
    in_sample.insert(v);
  }
  MG_CHECK_MSG(in_sample.size() == target_nodes.size(), "target_nodes must be unique");

  std::vector<int64_t> delta = target_nodes;  // Δk

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
    std::vector<int64_t> hop_nbrs(static_cast<size_t>(total));
    std::vector<int32_t> hop_rels(static_cast<size_t>(total));

    std::vector<Neighbor> scratch;
    for (int64_t j = 0; j < m; ++j) {
      scratch.clear();
      Rng node_rng(MixSeed(batch_seed, static_cast<uint64_t>(hop) * 0x100000001ULL +
                                           static_cast<uint64_t>(j)));
      index->SampleOneHop(delta[static_cast<size_t>(j)], fanout, dir_, node_rng, scratch);
      int64_t pos = starts[static_cast<size_t>(j)];
      for (const Neighbor& nb : scratch) {
        hop_nbrs[static_cast<size_t>(pos)] = nb.node;
        hop_rels[static_cast<size_t>(pos)] = nb.rel;
        ++pos;
      }
      MG_DCHECK(pos == starts[static_cast<size_t>(j) + 1]);
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

      std::vector<int32_t> new_rels;
      new_rels.reserve(hop_rels.size() + b.nbr_rels.size());
      new_rels.insert(new_rels.end(), hop_rels.begin(), hop_rels.end());
      new_rels.insert(new_rels.end(), b.nbr_rels.begin(), b.nbr_rels.end());
      b.nbr_rels = std::move(new_rels);
    }

    // Δi−1 = unique(Δi_nbrs) \ node_ids (Algorithm 1, line 7).
    std::vector<int64_t> next_delta;
    for (int64_t v : hop_nbrs) {
      if (in_sample.insert(v).second) {
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
