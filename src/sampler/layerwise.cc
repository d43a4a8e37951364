#include "src/sampler/layerwise.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/node_row_map.h"
#include "src/util/rng.h"

namespace mariusgnn {

int64_t LayerwiseSample::TotalSampledEdges() const {
  int64_t total = 0;
  for (const LayerBlock& b : blocks) {
    total += b.num_edges();
  }
  return total;
}

LayerwiseSampler::LayerwiseSampler(std::vector<int64_t> fanouts, EdgeDirection dir)
    : fanouts_(std::move(fanouts)), dir_(dir) {
  MG_CHECK(!fanouts_.empty());
}

LayerwiseSample LayerwiseSampler::SampleSeeded(const std::vector<int64_t>& target_nodes,
                                               uint64_t batch_seed,
                                               const NeighborIndex* index) const {
  MG_CHECK(index != nullptr);
  LayerwiseSample sample;
  sample.blocks.resize(fanouts_.size());

  std::vector<int64_t> frontier = target_nodes;
  std::vector<int64_t> scratch;
  PickScratch picks;
  // Hop h = 0 is the layer closest to the targets (the k-th GNN layer); blocks are
  // stored innermost-first so we fill from the back.
  for (size_t h = 0; h < fanouts_.size(); ++h) {
    LayerBlock& block = sample.blocks[fanouts_.size() - 1 - h];
    block.dst_nodes = frontier;

    // src_nodes = dst_nodes ++ newly sampled neighbors (deduped within this layer).
    NodeRowMap src_pos(
        std::min(static_cast<int64_t>(frontier.size()) * 4, index->num_nodes()));
    block.src_nodes = frontier;
    for (size_t i = 0; i < frontier.size(); ++i) {
      src_pos.Emplace(frontier[i], static_cast<int64_t>(i));
    }

    for (size_t d = 0; d < frontier.size(); ++d) {
      scratch.clear();
      // Per-(hop, position) RNG stream derived from the batch seed keeps the sample a
      // pure function of the seed (matching DenseSampler's scheme).
      Rng node_rng(MixSeed(batch_seed, static_cast<uint64_t>(h) * 0x100000001ULL +
                                           static_cast<uint64_t>(d)));
      // Fresh sample per layer: this is the cross-layer resampling DENSE avoids.
      index->SampleOneHop(frontier[d], fanouts_[h], dir_, node_rng, picks, scratch);
      for (int64_t nb : scratch) {
        const auto [row, inserted] =
            src_pos.Emplace(nb, static_cast<int64_t>(block.src_nodes.size()));
        if (inserted) {
          block.src_nodes.push_back(nb);
        }
        block.edge_dst.push_back(static_cast<int64_t>(d));
        block.edge_src.push_back(row);
      }
    }
    frontier = block.src_nodes;
  }
  return sample;
}

TreeSampler::TreeSampler(std::vector<int64_t> fanouts, EdgeDirection dir)
    : fanouts_(std::move(fanouts)), dir_(dir) {
  MG_CHECK(!fanouts_.empty());
}

TreeSampleStats TreeSampler::SampleSeeded(const std::vector<int64_t>& target_nodes,
                                          uint64_t seed, const NeighborIndex* index) const {
  MG_CHECK(index != nullptr);
  TreeSampleStats stats;
  std::vector<int64_t> level = target_nodes;
  stats.total_instances = static_cast<int64_t>(level.size());
  Rng rng(seed);
  PickScratch picks;
  for (int64_t fanout : fanouts_) {
    std::vector<int64_t> next;
    next.reserve(level.size() * static_cast<size_t>(fanout));
    for (int64_t v : level) {
      index->SampleOneHop(v, fanout, dir_, rng, picks, next);
    }
    stats.total_instances += static_cast<int64_t>(next.size());
    stats.total_edges += static_cast<int64_t>(next.size());
    level = std::move(next);
  }
  return stats;
}

}  // namespace mariusgnn
