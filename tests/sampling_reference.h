// Hash-based references for the sampling and query-planning paths: the
// std::unordered_map/set versions of Rng::SampleWithoutReplacement,
// NeighborIndex::SampleOneHop, DenseSampler::SampleSeeded +
// DenseBatch::FinalizeForDevice, LayerwiseSampler::SampleSeeded and
// InferenceServer::PlanLinkQuery that the flat NodeRowMap versions replaced.
// The rewrites must reproduce every output field and every RNG draw bit for
// bit; dense_test, layerwise_test, util_test and serve_test compare them on the
// seeded graphs built by SamplingTestGraph.
//
// Also the per-layer index derivations the two encoders ran inside Forward
// before both samplers lowered to one plan in stage 1: the DENSE encoder's
// per-layer views and the baseline's serial block-to-segment counting sort.
// PlanFromDense and PlanFromBlocks must give the same vectors.
#ifndef TESTS_SAMPLING_REFERENCE_H_
#define TESTS_SAMPLING_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/neighbor_index.h"
#include "src/nn/layer.h"
#include "src/sampler/dense.h"
#include "src/sampler/layerwise.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace mariusgnn {

inline std::vector<int64_t> RefSampleWithoutReplacement(Rng& rng, int64_t population,
                                                        int64_t count) {
  MG_CHECK(population >= 0 && count >= 0);
  if (count >= population) {
    std::vector<int64_t> all(static_cast<size_t>(population));
    for (int64_t i = 0; i < population; ++i) {
      all[static_cast<size_t>(i)] = i;
    }
    return all;
  }
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(count));
  if (count * 3 >= population) {
    std::vector<int64_t> idx(static_cast<size_t>(population));
    for (int64_t i = 0; i < population; ++i) {
      idx[static_cast<size_t>(i)] = i;
    }
    for (int64_t i = 0; i < count; ++i) {
      int64_t j = rng.UniformInt(i, population);
      std::swap(idx[static_cast<size_t>(i)], idx[static_cast<size_t>(j)]);
      out.push_back(idx[static_cast<size_t>(i)]);
    }
    return out;
  }
  std::unordered_set<int64_t> seen;
  seen.reserve(static_cast<size_t>(count) * 2);
  for (int64_t j = population - count; j < population; ++j) {
    int64_t t = rng.UniformInt(0, j + 1);
    if (seen.insert(t).second) {
      out.push_back(t);
    } else {
      seen.insert(j);
      out.push_back(j);
    }
  }
  rng.Shuffle(out);
  return out;
}

// One direction's neighbor pool comes from AllNeighbors, which lists a node's
// edges in the index's own order.
inline int64_t RefSampleDirection(const NeighborIndex& index, int64_t node, int64_t fanout,
                                  EdgeDirection one_dir, Rng& rng, std::vector<Neighbor>& out) {
  const std::vector<Neighbor> pool = index.AllNeighbors(node, one_dir);
  const int64_t degree = static_cast<int64_t>(pool.size());
  if (degree == 0) {
    return 0;
  }
  if (fanout < 0 || degree <= fanout) {
    out.insert(out.end(), pool.begin(), pool.end());
    return degree;
  }
  for (int64_t p : RefSampleWithoutReplacement(rng, degree, fanout)) {
    out.push_back(pool[static_cast<size_t>(p)]);
  }
  return fanout;
}

inline int64_t RefSampleOneHop(const NeighborIndex& index, int64_t node, int64_t fanout,
                               EdgeDirection dir, Rng& rng, std::vector<Neighbor>& out) {
  int64_t count = 0;
  if (dir == EdgeDirection::kOutgoing || dir == EdgeDirection::kBoth) {
    count += RefSampleDirection(index, node, fanout, EdgeDirection::kOutgoing, rng, out);
  }
  if (dir == EdgeDirection::kIncoming || dir == EdgeDirection::kBoth) {
    count += RefSampleDirection(index, node, fanout, EdgeDirection::kIncoming, rng, out);
  }
  return count;
}

inline void RefFinalizeForDevice(DenseBatch& b) {
  std::unordered_map<int64_t, int64_t> row_of;
  row_of.reserve(b.node_ids.size() * 2);
  for (size_t i = 0; i < b.node_ids.size(); ++i) {
    row_of.emplace(b.node_ids[i], static_cast<int64_t>(i));
  }
  b.repr_map.resize(b.nbrs.size());
  for (size_t i = 0; i < b.nbrs.size(); ++i) {
    auto it = row_of.find(b.nbrs[i]);
    MG_CHECK_MSG(it != row_of.end(), "nbr id missing from node_ids");
    b.repr_map[i] = it->second;
  }
}

inline DenseBatch RefDenseSampleSeeded(const NeighborIndex& index,
                                       const std::vector<int64_t>& fanouts, EdgeDirection dir,
                                       const std::vector<int64_t>& target_nodes,
                                       uint64_t batch_seed) {
  DenseBatch b;
  b.node_id_offsets = {0};
  b.node_ids = target_nodes;
  std::unordered_set<int64_t> in_sample(target_nodes.begin(), target_nodes.end());
  MG_CHECK_MSG(in_sample.size() == target_nodes.size(), "target_nodes must be unique");
  std::vector<int64_t> delta = target_nodes;
  for (size_t hop = 0; hop < fanouts.size(); ++hop) {
    std::vector<int64_t> hop_offsets;
    std::vector<int64_t> hop_nbrs;
    std::vector<int32_t> hop_rels;
    std::vector<Neighbor> scratch;
    for (size_t j = 0; j < delta.size(); ++j) {
      hop_offsets.push_back(static_cast<int64_t>(hop_nbrs.size()));
      scratch.clear();
      Rng node_rng(MixSeed(batch_seed, static_cast<uint64_t>(hop) * 0x100000001ULL +
                                           static_cast<uint64_t>(j)));
      RefSampleOneHop(index, delta[j], fanouts[hop], dir, node_rng, scratch);
      for (const Neighbor& nb : scratch) {
        hop_nbrs.push_back(nb.node);
        hop_rels.push_back(nb.rel);
      }
    }
    const int64_t total = static_cast<int64_t>(hop_nbrs.size());
    for (int64_t o : b.nbr_offsets) {
      hop_offsets.push_back(o + total);
    }
    b.nbr_offsets = std::move(hop_offsets);
    b.nbrs.insert(b.nbrs.begin(), hop_nbrs.begin(), hop_nbrs.end());
    b.nbr_rels.insert(b.nbr_rels.begin(), hop_rels.begin(), hop_rels.end());

    std::vector<int64_t> next_delta;
    for (int64_t v : hop_nbrs) {
      if (in_sample.insert(v).second) {
        next_delta.push_back(v);
      }
    }
    for (auto& o : b.node_id_offsets) {
      o += static_cast<int64_t>(next_delta.size());
    }
    b.node_id_offsets.insert(b.node_id_offsets.begin(), 0);
    b.node_ids.insert(b.node_ids.begin(), next_delta.begin(), next_delta.end());
    delta = std::move(next_delta);
  }
  return b;
}

inline LayerwiseSample RefLayerwiseSampleSeeded(const NeighborIndex& index,
                                                const std::vector<int64_t>& fanouts,
                                                EdgeDirection dir,
                                                const std::vector<int64_t>& target_nodes,
                                                uint64_t batch_seed) {
  LayerwiseSample sample;
  sample.blocks.resize(fanouts.size());
  std::vector<int64_t> frontier = target_nodes;
  std::vector<Neighbor> scratch;
  for (size_t h = 0; h < fanouts.size(); ++h) {
    LayerBlock& block = sample.blocks[fanouts.size() - 1 - h];
    block.dst_nodes = frontier;
    std::unordered_map<int64_t, int64_t> src_pos;
    block.src_nodes = frontier;
    for (size_t i = 0; i < frontier.size(); ++i) {
      src_pos.emplace(frontier[i], static_cast<int64_t>(i));
    }
    for (size_t d = 0; d < frontier.size(); ++d) {
      scratch.clear();
      Rng node_rng(MixSeed(batch_seed, static_cast<uint64_t>(h) * 0x100000001ULL +
                                           static_cast<uint64_t>(d)));
      RefSampleOneHop(index, frontier[d], fanouts[h], dir, node_rng, scratch);
      for (const Neighbor& nb : scratch) {
        auto [it, inserted] =
            src_pos.emplace(nb.node, static_cast<int64_t>(block.src_nodes.size()));
        if (inserted) {
          block.src_nodes.push_back(nb.node);
        }
        block.edge_dst.push_back(static_cast<int64_t>(d));
        block.edge_src.push_back(it->second);
      }
    }
    frontier = block.src_nodes;
  }
  return sample;
}

struct RefLinkPlan {
  std::vector<int64_t> targets;
  int64_t src_row = 0;
  std::vector<int64_t> cand_rows;
};

inline RefLinkPlan RefPlanLinkQuery(int64_t src, const std::vector<int64_t>& candidates) {
  RefLinkPlan plan;
  std::unordered_map<int64_t, int64_t> row_of;
  auto row_for = [&](int64_t node) {
    auto it = row_of.find(node);
    if (it != row_of.end()) {
      return it->second;
    }
    const int64_t row = static_cast<int64_t>(plan.targets.size());
    plan.targets.push_back(node);
    row_of.emplace(node, row);
    return row;
  };
  plan.src_row = row_for(src);
  for (int64_t cand : candidates) {
    plan.cand_rows.push_back(row_for(cand));
  }
  return plan;
}

// The DENSE encoder's per-layer views: the outputs node_ids[offsets[1]:] read
// their own rows, a copy of repr_map and SegmentOffsets(), then AdvanceLayer()
// before the next layer. `batch` must be finalized.
inline std::vector<LayerView> RefDenseLayerViews(DenseBatch batch) {
  const int64_t num_layers = batch.num_deltas() - 1;
  std::vector<LayerView> views;
  for (int64_t j = 0; j < num_layers; ++j) {
    LayerView view;
    const int64_t out_begin = batch.node_id_offsets[1];
    view.self_rows.resize(static_cast<size_t>(batch.num_nodes() - out_begin));
    std::iota(view.self_rows.begin(), view.self_rows.end(), out_begin);
    view.nbr_rows = batch.repr_map;
    view.seg_offsets = batch.SegmentOffsets();
    views.push_back(std::move(view));
    if (j + 1 < num_layers) {
      batch.AdvanceLayer();
    }
  }
  return views;
}

// The baseline's block-to-segment conversion: self rows 0..|dst|-1, and a
// single-pass counting sort of the edges by destination.
inline LayerView RefSortBlockByDst(const LayerBlock& block) {
  LayerView view;
  const int64_t num_dst = static_cast<int64_t>(block.dst_nodes.size());
  view.self_rows.resize(static_cast<size_t>(num_dst));
  std::iota(view.self_rows.begin(), view.self_rows.end(), 0);
  const int64_t num_edges = static_cast<int64_t>(block.edge_dst.size());
  std::vector<int64_t> counts(static_cast<size_t>(num_dst) + 1, 0);
  view.nbr_rows.resize(static_cast<size_t>(num_edges));
  for (int64_t d : block.edge_dst) {
    ++counts[static_cast<size_t>(d) + 1];
  }
  for (size_t i = 1; i < counts.size(); ++i) {
    counts[i] += counts[i - 1];
  }
  view.seg_offsets = counts;
  std::vector<int64_t> cursor(counts.begin(), counts.end() - 1);
  for (int64_t e = 0; e < num_edges; ++e) {
    const int64_t pos = cursor[static_cast<size_t>(block.edge_dst[static_cast<size_t>(e)])]++;
    view.nbr_rows[static_cast<size_t>(pos)] = block.edge_src[static_cast<size_t>(e)];
  }
  return view;
}

// A seeded random graph that reaches every branch of the samplers: a few hubs
// whose degree exceeds 3x any fanout the tests use (Floyd's sparse branch),
// mid-degree nodes (the dense partial Fisher–Yates branch and "take all"),
// self loops, isolated nodes (ids >= num_nodes - num_isolated never get an
// edge), and several relations.
inline Graph SamplingTestGraph(uint64_t seed, int64_t num_nodes = 400,
                               int64_t num_edges = 3000, int64_t num_isolated = 20) {
  Rng rng(seed);
  const int64_t connected = num_nodes - num_isolated;
  const int64_t num_hubs = 4;
  std::vector<Edge> edges;
  for (int64_t e = 0; e < num_edges; ++e) {
    Edge edge;
    const uint64_t kind = rng.UniformInt(10);
    if (kind < 3) {  // hub edge, either direction
      const int64_t hub = rng.UniformInt(0, num_hubs);
      const int64_t other = rng.UniformInt(0, connected);
      edge.src = rng.UniformInt(2) == 0 ? hub : other;
      edge.dst = edge.src == hub ? other : hub;
    } else if (kind == 3) {  // self loop
      edge.src = rng.UniformInt(0, connected);
      edge.dst = edge.src;
    } else {
      edge.src = rng.UniformInt(0, connected);
      edge.dst = rng.UniformInt(0, connected);
    }
    edge.rel = static_cast<int32_t>(rng.UniformInt(3));
    edges.push_back(edge);
  }
  return Graph(num_nodes, std::move(edges), 3);
}

}  // namespace mariusgnn

#endif  // TESTS_SAMPLING_REFERENCE_H_
