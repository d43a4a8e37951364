// Tests for the baseline samplers (DGL/PyG-style layer-wise, NextDoor-style tree) and
// the paper's claim that DENSE samples strictly less than they do.
#include <gtest/gtest.h>

#include <unordered_set>

#include "src/data/datasets.h"
#include "src/nn/encoder.h"
#include "src/sampler/dense.h"
#include "src/sampler/layerwise.h"
#include "src/sampler/negative.h"
#include "tests/sampling_reference.h"

namespace mariusgnn {
namespace {

TEST(Layerwise, BlockChainIsConsistent) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  LayerwiseSampler sampler(&index, {4, 4, 4}, EdgeDirection::kBoth, 1);
  std::vector<int64_t> targets = {0, 1, 2, 3};
  LayerwiseSample s = sampler.Sample(targets);
  ASSERT_EQ(s.blocks.size(), 3u);
  // Outermost block's dst == targets.
  EXPECT_EQ(s.blocks.back().dst_nodes, targets);
  // Chain property: blocks[j].dst == blocks[j+1]... is reversed: blocks[j+1].src
  // feeds blocks[j+1], whose dst equals blocks[j+2]'s src... verify adjacency:
  for (size_t j = 0; j + 1 < s.blocks.size(); ++j) {
    EXPECT_EQ(s.blocks[j].dst_nodes, s.blocks[j + 1].src_nodes);
  }
  // src always begins with dst (self rows).
  for (const auto& block : s.blocks) {
    ASSERT_GE(block.src_nodes.size(), block.dst_nodes.size());
    for (size_t i = 0; i < block.dst_nodes.size(); ++i) {
      EXPECT_EQ(block.src_nodes[i], block.dst_nodes[i]);
    }
  }
}

TEST(Layerwise, EdgesIndexInRange) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  LayerwiseSampler sampler(&index, {5, 5}, EdgeDirection::kBoth, 2);
  LayerwiseSample s = sampler.Sample({10, 20, 30});
  for (const auto& block : s.blocks) {
    ASSERT_EQ(block.edge_dst.size(), block.edge_src.size());
    for (size_t e = 0; e < block.edge_dst.size(); ++e) {
      EXPECT_GE(block.edge_dst[e], 0);
      EXPECT_LT(block.edge_dst[e], static_cast<int64_t>(block.dst_nodes.size()));
      EXPECT_GE(block.edge_src[e], 0);
      EXPECT_LT(block.edge_src[e], static_cast<int64_t>(block.src_nodes.size()));
    }
  }
}

TEST(Layerwise, SrcNodesUnique) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  LayerwiseSampler sampler(&index, {6, 6}, EdgeDirection::kBoth, 3);
  LayerwiseSample s = sampler.Sample({1, 2, 3, 4, 5});
  for (const auto& block : s.blocks) {
    std::unordered_set<int64_t> uniq(block.src_nodes.begin(), block.src_nodes.end());
    EXPECT_EQ(uniq.size(), block.src_nodes.size());
  }
}

TEST(Layerwise, DenseSamplesFewerNodesAndEdges) {
  // Table 6's third panel: for the same targets and fanouts, DENSE needs fewer unique
  // nodes and fewer sampled edges than layer-wise resampling at depth >= 2.
  // Large enough that fanout-limited sampling does not saturate the whole graph
  // (saturation makes both samplers touch every node and hides the difference).
  Graph g = Fb15k237Like(0.75);
  NeighborIndex index(g);
  std::vector<int64_t> targets;
  for (int64_t v = 0; v < 32; ++v) {
    targets.push_back(v * 5);
  }
  for (int depth : {2, 3}) {
    std::vector<int64_t> fanouts(static_cast<size_t>(depth), 5);
    DenseSampler dense(&index, fanouts, EdgeDirection::kBoth, 4);
    LayerwiseSampler layerwise(&index, fanouts, EdgeDirection::kBoth, 4);
    DenseBatch db = dense.Sample(targets);
    LayerwiseSample ls = layerwise.Sample(targets);
    EXPECT_LE(db.num_nodes(), ls.NumInputNodes())
        << "depth " << depth << ": DENSE should gather fewer base representations";
    EXPECT_LE(db.num_sampled_edges(), ls.TotalSampledEdges())
        << "depth " << depth << ": DENSE should sample fewer edges";
  }
}

TEST(TreeSampler, GrowsMultiplicatively) {
  Graph g = LiveJournalMini(0.02);
  NeighborIndex index(g);
  TreeSampler t2(&index, {10, 10}, EdgeDirection::kOutgoing, 5);
  TreeSampler t3(&index, {10, 10, 10}, EdgeDirection::kOutgoing, 5);
  std::vector<int64_t> targets = {0, 1, 2, 3};
  const auto s2 = t2.Sample(targets);
  const auto s3 = t3.Sample(targets);
  EXPECT_GT(s3.total_instances, s2.total_instances);
  EXPECT_GT(s3.total_edges, 2 * s2.total_edges / 3);
}

TEST(TreeSampler, CountsConsistent) {
  Graph g = LiveJournalMini(0.02);
  NeighborIndex index(g);
  TreeSampler t(&index, {5}, EdgeDirection::kOutgoing, 6);
  const auto s = t.Sample({0, 1});
  EXPECT_EQ(s.total_instances, 2 + s.total_edges);
}

TEST(NegativeSampler, UniformOverUniverse) {
  UniformNegativeSampler sampler(100, 7);
  auto s = sampler.Sample(1000);
  EXPECT_EQ(s.size(), 1000u);
  for (int64_t v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(NegativeSampler, RestrictedUniverse) {
  std::vector<int64_t> universe = {5, 10, 15};
  UniformNegativeSampler sampler(universe, 7);
  auto s = sampler.Sample(300);
  std::unordered_set<int64_t> seen(s.begin(), s.end());
  for (int64_t v : s) {
    EXPECT_TRUE(v == 5 || v == 10 || v == 15);
  }
  EXPECT_EQ(seen.size(), 3u);
}


// The flat-map layer-wise sampler produces the hash-based reference's blocks
// field for field, at depths 1-4 in every direction. Targets repeat an id and
// include isolated nodes: a repeated target keeps its first row.
TEST(LayerwiseReference, SampleMatchesHashReference) {
  const std::vector<std::vector<int64_t>> fanout_sets = {
      {30}, {10, 3}, {3, 5, 2}, {4, 2, 3, 2}};
  const EdgeDirection dirs[] = {EdgeDirection::kOutgoing, EdgeDirection::kIncoming,
                                EdgeDirection::kBoth};
  for (uint64_t graph_seed : {1u, 2u, 3u}) {
    Graph g = SamplingTestGraph(graph_seed);
    NeighborIndex index(g);
    Rng target_rng(graph_seed);
    for (EdgeDirection dir : dirs) {
      for (const auto& fanouts : fanout_sets) {
        LayerwiseSampler sampler(&index, fanouts, dir);
        for (uint64_t batch = 0; batch < 3; ++batch) {
          std::vector<int64_t> targets = {0, g.num_nodes() - 1, 1};
          for (int i = 0; i < 8; ++i) {
            targets.push_back(target_rng.UniformInt(0, g.num_nodes()));
          }
          targets.push_back(targets[3]);
          const uint64_t batch_seed = MixSeed(graph_seed, batch);
          const LayerwiseSample got = sampler.SampleSeeded(targets, batch_seed);
          const LayerwiseSample want =
              RefLayerwiseSampleSeeded(index, fanouts, dir, targets, batch_seed);
          ASSERT_EQ(got.blocks.size(), want.blocks.size());
          for (size_t k = 0; k < got.blocks.size(); ++k) {
            ASSERT_EQ(got.blocks[k].dst_nodes, want.blocks[k].dst_nodes) << "block " << k;
            ASSERT_EQ(got.blocks[k].src_nodes, want.blocks[k].src_nodes) << "block " << k;
            ASSERT_EQ(got.blocks[k].edge_dst, want.blocks[k].edge_dst) << "block " << k;
            ASSERT_EQ(got.blocks[k].edge_src, want.blocks[k].edge_src) << "block " << k;
          }
        }
      }
    }
  }
}

// PlanFromBlocks gives the baseline's former serial block-to-segment sort vector
// for vector, block by block, at depths 1-4 in every direction, and takes the
// innermost block's src_nodes as the input rows.
TEST(LayerwiseReference, PlanFromBlocksMatchesSerialSort) {
  const std::vector<std::vector<int64_t>> fanout_sets = {
      {30}, {10, 3}, {3, 5, 2}, {4, 2, 3, 2}};
  const EdgeDirection dirs[] = {EdgeDirection::kOutgoing, EdgeDirection::kIncoming,
                                EdgeDirection::kBoth};
  for (uint64_t graph_seed : {1u, 2u, 3u}) {
    Graph g = SamplingTestGraph(graph_seed);
    NeighborIndex index(g);
    Rng target_rng(graph_seed);
    for (EdgeDirection dir : dirs) {
      for (const auto& fanouts : fanout_sets) {
        LayerwiseSampler sampler(&index, fanouts, dir);
        for (uint64_t batch = 0; batch < 3; ++batch) {
          std::vector<int64_t> targets = {0, g.num_nodes() - 1, 1};
          for (int i = 0; i < 8; ++i) {
            targets.push_back(target_rng.UniformInt(0, g.num_nodes()));
          }
          const LayerwiseSample sample =
              sampler.SampleSeeded(targets, MixSeed(graph_seed, batch));
          const GnnPlan got = PlanFromBlocks(sample);
          ASSERT_EQ(got.input_nodes, sample.input_nodes());
          ASSERT_EQ(got.layers.size(), sample.blocks.size());
          for (size_t j = 0; j < sample.blocks.size(); ++j) {
            const LayerView want = RefSortBlockByDst(sample.blocks[j]);
            ASSERT_EQ(got.layers[j].self_rows, want.self_rows) << "block " << j;
            ASSERT_EQ(got.layers[j].nbr_rows, want.nbr_rows) << "block " << j;
            ASSERT_EQ(got.layers[j].seg_offsets, want.seg_offsets) << "block " << j;
            EXPECT_EQ(got.layers[j].h, nullptr);
            EXPECT_EQ(got.layers[j].compute, nullptr);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mariusgnn
