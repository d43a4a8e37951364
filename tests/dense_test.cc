// Tests for the DENSE data structure (Algorithm 1), the per-layer update
// (Algorithm 2: PlanFromDense's slices, against the batch-rewriting reference
// RefAdvanceLayer), and their invariants, including a hand-checked example mirroring
// the paper's Figure 3, and field-for-field agreement of the sampler and its one-hop
// draws with their hash-based references (tests/sampling_reference.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/data/datasets.h"
#include "src/graph/neighbor_index.h"
#include "src/nn/encoder.h"
#include "src/sampler/dense.h"
#include "tests/sampling_reference.h"

namespace mariusgnn {
namespace {

// A=0, B=1, C=2, D=3, E=4. Incoming neighborhoods: A:{C,D}, B:{C}, C:{E}, D:{C}.
Graph FigureGraph() {
  std::vector<Edge> edges = {
      {2, 0, 0},  // C->A
      {3, 0, 0},  // D->A
      {2, 1, 0},  // C->B
      {4, 2, 0},  // E->C
      {2, 3, 0},  // C->D
  };
  return Graph(5, std::move(edges));
}

TEST(Dense, Figure3TwoHopExample) {
  Graph g = FigureGraph();
  NeighborIndex index(g);
  const DenseSampler sampler({10, 10}, EdgeDirection::kIncoming);
  DenseBatch b = sampler.SampleSeeded({0, 1}, MixSeed(1, 0), &index);  // targets {A, B}

  // Deltas: Δ0 = {E}, Δ1 = {C, D}, Δ2 = {A, B}.
  ASSERT_EQ(b.node_id_offsets, (std::vector<int64_t>{0, 1, 3}));
  ASSERT_EQ(b.node_ids, (std::vector<int64_t>{4, 2, 3, 0, 1}));
  // nbrs: Δ1's one-hop samples first (C:{E}, D:{C}), then Δ2's (A:{C,D}, B:{C}).
  ASSERT_EQ(b.nbrs, (std::vector<int64_t>{4, 2, 2, 3, 2}));
  ASSERT_EQ(b.nbr_offsets, (std::vector<int64_t>{0, 1, 2, 4}));

  b.FinalizeForDevice();
  EXPECT_EQ(b.repr_map, (std::vector<int64_t>{0, 1, 1, 2, 1}));

  EXPECT_EQ(b.num_targets(), 2);
  EXPECT_EQ(b.num_output_nodes(), 4);
  EXPECT_EQ(RefSegmentOffsets(b), (std::vector<int64_t>{0, 1, 2, 4, 5}));

  // PlanFromDense slices both layers' views out of the one finalized batch.
  const GnnPlan plan = PlanFromDense(b);
  EXPECT_EQ(plan.input_nodes, b.node_ids);
  ASSERT_EQ(plan.layers.size(), 2u);
  EXPECT_EQ(plan.layers[0].self_begin, 1);
  EXPECT_EQ(plan.layers[0].seg_offsets, (std::vector<int64_t>{0, 1, 2, 4, 5}));
  EXPECT_EQ(plan.layers[0].nbr_rows, (std::vector<int64_t>{0, 1, 1, 2, 1}));
  EXPECT_EQ(plan.layers[1].self_begin, 2);
  EXPECT_EQ(plan.layers[1].seg_offsets, (std::vector<int64_t>{0, 2, 3}));
  EXPECT_EQ(plan.layers[1].nbr_rows, (std::vector<int64_t>{0, 1, 0}));

  // Algorithm 2 as a rewrite after layer 1: drop Δ0 = {E} and the Δ1 neighbor block.
  RefAdvanceLayer(b);
  EXPECT_EQ(b.node_ids, (std::vector<int64_t>{2, 3, 0, 1}));
  EXPECT_EQ(b.node_id_offsets, (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(b.nbrs, (std::vector<int64_t>{2, 3, 2}));
  EXPECT_EQ(b.nbr_offsets, (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(b.repr_map, (std::vector<int64_t>{0, 1, 0}));
  EXPECT_EQ(b.num_output_nodes(), 2);
  EXPECT_EQ(RefSegmentOffsets(b), (std::vector<int64_t>{0, 2, 3}));
}

TEST(Dense, OneHopReuseAcrossLayers) {
  // The defining DENSE property: a node appearing at multiple hops has its one-hop
  // neighborhood sampled exactly once — one contiguous segment per unique node.
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  const DenseSampler sampler({5, 5, 5}, EdgeDirection::kBoth);
  std::vector<int64_t> targets = {0, 1, 2, 3, 4, 5, 6, 7};
  DenseBatch b = sampler.SampleSeeded(targets, MixSeed(3, 0), &index);

  // node_ids are unique.
  std::unordered_set<int64_t> uniq(b.node_ids.begin(), b.node_ids.end());
  EXPECT_EQ(uniq.size(), b.node_ids.size());

  // Exactly one neighbor segment per non-Δ0 node.
  EXPECT_EQ(static_cast<int64_t>(b.nbr_offsets.size()), b.num_output_nodes());

  // Every sampled neighbor id is present in node_ids (closure property).
  for (int64_t n : b.nbrs) {
    EXPECT_TRUE(uniq.count(n) == 1);
  }
}

TEST(Dense, TargetsAreLastDelta) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  const DenseSampler sampler({3, 3}, EdgeDirection::kOutgoing);
  std::vector<int64_t> targets = {10, 20, 30};
  DenseBatch b = sampler.SampleSeeded(targets, MixSeed(7, 0), &index);
  ASSERT_EQ(b.num_targets(), 3);
  const int64_t begin = b.DeltaBegin(b.num_deltas() - 1);
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(b.node_ids[static_cast<size_t>(begin) + i], targets[i]);
  }
}

TEST(Dense, FanoutCapRespected) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  const int64_t fanout = 4;
  const DenseSampler sampler({fanout}, EdgeDirection::kOutgoing);
  std::vector<int64_t> targets;
  for (int64_t v = 0; v < 50; ++v) {
    targets.push_back(v);
  }
  DenseBatch b = sampler.SampleSeeded(targets, MixSeed(5, 0), &index);
  auto seg = RefSegmentOffsets(b);
  for (size_t s = 0; s + 1 < seg.size(); ++s) {
    EXPECT_LE(seg[s + 1] - seg[s], fanout);
  }
}

TEST(Dense, BothDirectionsDoublesCap) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  const int64_t fanout = 3;
  const DenseSampler sampler({fanout}, EdgeDirection::kBoth);
  std::vector<int64_t> targets = {0, 1, 2, 3, 4};
  DenseBatch b = sampler.SampleSeeded(targets, MixSeed(5, 0), &index);
  auto seg = RefSegmentOffsets(b);
  for (size_t s = 0; s + 1 < seg.size(); ++s) {
    EXPECT_LE(seg[s + 1] - seg[s], 2 * fanout);
  }
}

TEST(Dense, DeterministicGivenSeed) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  const DenseSampler s1({5, 5}, EdgeDirection::kBoth);
  const DenseSampler s2({5, 5}, EdgeDirection::kBoth);
  DenseBatch a = s1.SampleSeeded({1, 2, 3}, MixSeed(42, 0), &index);
  DenseBatch b = s2.SampleSeeded({1, 2, 3}, MixSeed(42, 0), &index);
  EXPECT_EQ(a.node_ids, b.node_ids);
  EXPECT_EQ(a.nbrs, b.nbrs);
  EXPECT_EQ(a.nbr_offsets, b.nbr_offsets);
}

TEST(Dense, AdvanceLayerPreservesClosure) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  const DenseSampler sampler({4, 4, 4}, EdgeDirection::kBoth);
  std::vector<int64_t> targets = {0, 5, 9, 13};
  DenseBatch b = sampler.SampleSeeded(targets, MixSeed(11, 0), &index);
  b.FinalizeForDevice();
  for (int layer = 0; layer < 2; ++layer) {
    RefAdvanceLayer(b);
    // repr_map stays in range and consistent with node_ids.
    ASSERT_EQ(b.repr_map.size(), b.nbrs.size());
    for (size_t i = 0; i < b.nbrs.size(); ++i) {
      ASSERT_GE(b.repr_map[i], 0);
      ASSERT_LT(b.repr_map[i], b.num_nodes());
      EXPECT_EQ(b.node_ids[static_cast<size_t>(b.repr_map[i])], b.nbrs[i]);
    }
    EXPECT_EQ(static_cast<int64_t>(b.nbr_offsets.size()), b.num_output_nodes());
  }
  EXPECT_EQ(b.num_output_nodes(), static_cast<int64_t>(targets.size()));
}

TEST(Dense, EmptyNeighborhoodsHandled) {
  // A graph where some nodes have no neighbors at all.
  std::vector<Edge> edges = {{0, 1, 0}};
  Graph g(4, std::move(edges));
  NeighborIndex index(g);
  const DenseSampler sampler({3, 3}, EdgeDirection::kBoth);
  DenseBatch b = sampler.SampleSeeded({2, 3}, MixSeed(2, 0), &index);  // both isolated
  b.FinalizeForDevice();
  EXPECT_EQ(b.num_targets(), 2);
  EXPECT_EQ(b.num_sampled_edges(), 0);
  EXPECT_EQ(b.num_nodes(), 2);
  // Empty deltas still produce valid (empty) groups.
  EXPECT_EQ(b.num_deltas(), 3);
}

TEST(Dense, DecreasingFanoutsGiveAtLeastRequested) {
  // Section 4.1: with decreasing fanouts away from the targets, a reused sample
  // provides at least as many neighbors as requested at deeper hops.
  Graph g = Fb15k237Like(0.1);
  NeighborIndex index(g);
  const DenseSampler sampler({10, 5}, EdgeDirection::kOutgoing);
  std::vector<int64_t> targets = {0, 1, 2, 3};
  DenseBatch b = sampler.SampleSeeded(targets, MixSeed(13, 0), &index);
  b.FinalizeForDevice();

  // Targets' segments were sampled with fanout 10; if a target also appears in the
  // deeper layer, its (single, reused) segment has up to 10 — >= the 5 requested.
  auto seg = RefSegmentOffsets(b);
  // Verify total sampled edges is bounded by sum of per-delta fanout caps.
  int64_t total_cap = 0;
  for (int64_t g2 = 1; g2 < b.num_deltas(); ++g2) {
    const int64_t delta_size = b.DeltaEnd(g2) - b.DeltaBegin(g2);
    // Delta g2 was sampled at hop (num_deltas-1 - g2) + 1.
    total_cap += delta_size * 10;
  }
  EXPECT_LE(b.num_sampled_edges(), total_cap);
  EXPECT_EQ(seg.back(), b.num_sampled_edges());
}

// Property sweep over layer counts: structural invariants hold at any depth.
class DenseDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(DenseDepthTest, StructuralInvariants) {
  const int depth = GetParam();
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  std::vector<int64_t> fanouts(static_cast<size_t>(depth), 4);
  const DenseSampler sampler(fanouts, EdgeDirection::kBoth);
  std::vector<int64_t> targets = {0, 7, 14, 21, 28};
  DenseBatch b = sampler.SampleSeeded(targets, MixSeed(100 + depth, 0), &index);

  EXPECT_EQ(b.num_deltas(), depth + 1);
  // Offsets are sorted and in range.
  for (size_t i = 1; i < b.node_id_offsets.size(); ++i) {
    EXPECT_LE(b.node_id_offsets[i - 1], b.node_id_offsets[i]);
  }
  // nbr_offsets monotone.
  for (size_t i = 1; i < b.nbr_offsets.size(); ++i) {
    EXPECT_LE(b.nbr_offsets[i - 1], b.nbr_offsets[i]);
  }
  // Unique node ids.
  std::unordered_set<int64_t> uniq(b.node_ids.begin(), b.node_ids.end());
  EXPECT_EQ(uniq.size(), b.node_ids.size());
  // Finalize + walk all layers.
  b.FinalizeForDevice();
  for (int l = 0; l + 1 < depth; ++l) {
    RefAdvanceLayer(b);
  }
  EXPECT_EQ(b.num_output_nodes(), static_cast<int64_t>(targets.size()));
}

INSTANTIATE_TEST_SUITE_P(Depths, DenseDepthTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(Dense, SelfLoopNeighborReferencesOwnRow) {
  // A self-loop makes a target its own neighbor; repr_map must point at the target's
  // own node_ids row and RefAdvanceLayer must keep it consistent.
  std::vector<Edge> edges = {{0, 0, 0}, {1, 0, 0}};
  Graph g(2, std::move(edges));
  NeighborIndex index(g);
  const DenseSampler sampler({4, 4}, EdgeDirection::kIncoming);
  DenseBatch b = sampler.SampleSeeded({0}, MixSeed(3, 0), &index);
  b.FinalizeForDevice();
  for (size_t i = 0; i < b.nbrs.size(); ++i) {
    EXPECT_EQ(b.node_ids[static_cast<size_t>(b.repr_map[i])], b.nbrs[i]);
  }
  RefAdvanceLayer(b);
  for (size_t i = 0; i < b.nbrs.size(); ++i) {
    EXPECT_EQ(b.node_ids[static_cast<size_t>(b.repr_map[i])], b.nbrs[i]);
  }
}

// Fanout sweep: every fanout respects the per-direction cap and determinism.
class DenseFanoutTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DenseFanoutTest, CapAndDeterminism) {
  const int64_t fanout = GetParam();
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  const DenseSampler s1({fanout, fanout}, EdgeDirection::kBoth);
  const DenseSampler s2({fanout, fanout}, EdgeDirection::kBoth);
  std::vector<int64_t> targets = {0, 3, 6, 9};
  DenseBatch a = s1.SampleSeeded(targets, MixSeed(900, 0), &index);
  DenseBatch b = s2.SampleSeeded(targets, MixSeed(900, 0), &index);
  EXPECT_EQ(a.nbrs, b.nbrs);
  auto seg = RefSegmentOffsets(a);
  for (size_t s = 0; s + 1 < seg.size(); ++s) {
    EXPECT_LE(seg[s + 1] - seg[s], 2 * fanout);
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, DenseFanoutTest, ::testing::Values(1, 2, 3, 8, 32));

// Unique targets covering hubs (ids 0..3), ordinary nodes and isolated nodes
// (the graph's last ids), in a seeded order.
std::vector<int64_t> MixedTargets(const Graph& g, uint64_t seed, int64_t count) {
  Rng rng(seed);
  std::vector<int64_t> ids(static_cast<size_t>(g.num_nodes()));
  for (int64_t i = 0; i < g.num_nodes(); ++i) {
    ids[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(ids);
  std::vector<int64_t> targets = {g.num_nodes() - 1, 0, 2};
  for (int64_t v : ids) {
    if (static_cast<int64_t>(targets.size()) >= count) {
      break;
    }
    if (std::find(targets.begin(), targets.end(), v) == targets.end()) {
      targets.push_back(v);
    }
  }
  return targets;
}

const EdgeDirection kAllDirections[] = {EdgeDirection::kOutgoing, EdgeDirection::kIncoming,
                                        EdgeDirection::kBoth};

// Every node's one-hop draw, with one pick scratch reused across the whole
// sweep, equals the hash-based reference's, and leaves the node's generator in
// the reference's state: same picks, same RNG calls in the same order.
TEST(DenseReference, OneHopDrawsMatchHashReference) {
  for (uint64_t graph_seed : {1u, 2u}) {
    Graph g = SamplingTestGraph(graph_seed);
    NeighborIndex index(g);
    PickScratch picks;
    std::vector<int64_t> got;
    std::vector<int64_t> want;
    uint64_t got_state[4];
    uint64_t want_state[4];
    for (EdgeDirection dir : kAllDirections) {
      for (int64_t fanout : {-1, 0, 1, 3, 10, 30}) {
        for (int64_t v = 0; v < g.num_nodes(); ++v) {
          Rng rng(MixSeed(graph_seed, static_cast<uint64_t>(v)));
          Rng ref(MixSeed(graph_seed, static_cast<uint64_t>(v)));
          got.clear();
          want.clear();
          const int64_t n = index.SampleOneHop(v, fanout, dir, rng, picks, got);
          ASSERT_EQ(n, RefSampleOneHop(index, v, fanout, dir, ref, want));
          ASSERT_EQ(got, want) << "node " << v << " fanout " << fanout;
          rng.SaveState(got_state);
          ref.SaveState(want_state);
          for (int w = 0; w < 4; ++w) {
            ASSERT_EQ(got_state[w], want_state[w]) << "node " << v << " fanout " << fanout;
          }
        }
      }
    }
  }
}

// Hubs of in- and out-degree above 3x the largest fanout below, so Floyd's
// branch runs, next to the take-all and dense branches.
TEST(DenseReference, TestGraphHasHubsSelfLoopsAndIsolatedNodes) {
  Graph g = SamplingTestGraph(1);
  NeighborIndex index(g);
  for (int64_t hub = 0; hub < 4; ++hub) {
    EXPECT_GT(index.OutDegree(hub), 3 * 30);
    EXPECT_GT(index.InDegree(hub), 3 * 30);
  }
  EXPECT_EQ(index.OutDegree(g.num_nodes() - 1) + index.InDegree(g.num_nodes() - 1), 0);
  bool self_loop = false;
  for (const Edge& e : g.edges()) {
    self_loop = self_loop || e.src == e.dst;
  }
  EXPECT_TRUE(self_loop);
}

// The flat-map sampler and FinalizeForDevice produce the hash-based
// reference's DENSE arrays field for field, at depths 1-4 in every direction.
TEST(DenseReference, SampleAndFinalizeMatchHashReference) {
  const std::vector<std::vector<int64_t>> fanout_sets = {
      {30}, {10, 3}, {3, 5, 2}, {4, 2, 3, 2}};
  for (uint64_t graph_seed : {1u, 2u, 3u}) {
    Graph g = SamplingTestGraph(graph_seed);
    NeighborIndex index(g);
    for (EdgeDirection dir : kAllDirections) {
      for (const auto& fanouts : fanout_sets) {
        const DenseSampler sampler(fanouts, dir);
        for (uint64_t batch = 0; batch < 4; ++batch) {
          const std::vector<int64_t> targets =
              MixedTargets(g, graph_seed * 100 + batch, 5 + 20 * static_cast<int64_t>(batch));
          const uint64_t batch_seed = MixSeed(graph_seed, batch);
          DenseBatch got = sampler.SampleSeeded(targets, batch_seed, &index);
          DenseBatch want = RefDenseSampleSeeded(index, fanouts, dir, targets, batch_seed);
          got.FinalizeForDevice();
          RefFinalizeForDevice(want);
          ASSERT_EQ(got.node_id_offsets, want.node_id_offsets);
          ASSERT_EQ(got.node_ids, want.node_ids);
          ASSERT_EQ(got.nbr_offsets, want.nbr_offsets);
          ASSERT_EQ(got.nbrs, want.nbrs);
          ASSERT_EQ(got.repr_map, want.repr_map);
        }
      }
    }
  }
}

// PlanFromDense's slices equal the views of Algorithm 2 run as a batch rewrite
// (RefDenseLayerViews) vector for vector, at depths 1-4 in every direction, and
// keep node_ids as the input rows. The last batch of each sweep is all isolated
// targets: every segment is empty and each layer's first kept edge is
// nbrs.size().
TEST(DenseReference, PlanFromDenseMatchesEncoderViews) {
  const std::vector<std::vector<int64_t>> fanout_sets = {
      {30}, {10, 3}, {3, 5, 2}, {4, 2, 3, 2}};
  for (uint64_t graph_seed : {1u, 2u, 3u}) {
    Graph g = SamplingTestGraph(graph_seed);
    NeighborIndex index(g);
    const int64_t n = g.num_nodes();
    const std::vector<int64_t> isolated = {n - 1, n - 5, n - 2};
    for (EdgeDirection dir : kAllDirections) {
      for (const auto& fanouts : fanout_sets) {
        const DenseSampler sampler(fanouts, dir);
        for (uint64_t batch = 0; batch < 4; ++batch) {
          const std::vector<int64_t> targets =
              batch < 3 ? MixedTargets(g, graph_seed * 100 + batch,
                                       5 + 20 * static_cast<int64_t>(batch))
                        : isolated;
          DenseBatch sample = sampler.SampleSeeded(targets, MixSeed(graph_seed, batch), &index);
          sample.FinalizeForDevice();
          if (batch == 3) {
            ASSERT_EQ(sample.num_sampled_edges(), 0);
            ASSERT_EQ(sample.nbr_offsets, std::vector<int64_t>(isolated.size(), 0));
          }
          const std::vector<LayerView> want = RefDenseLayerViews(sample);
          const GnnPlan got = PlanFromDense(sample);
          ASSERT_EQ(got.input_nodes, sample.node_ids);
          ASSERT_EQ(got.layers.size(), fanouts.size());
          ASSERT_EQ(want.size(), fanouts.size());
          for (size_t j = 0; j < want.size(); ++j) {
            ASSERT_EQ(got.layers[j].self_begin, want[j].self_begin) << "layer " << j;
            ASSERT_EQ(got.layers[j].nbr_rows, want[j].nbr_rows) << "layer " << j;
            ASSERT_EQ(got.layers[j].seg_offsets, want[j].seg_offsets) << "layer " << j;
            EXPECT_EQ(got.layers[j].h, nullptr);
            EXPECT_EQ(got.layers[j].compute, nullptr);
          }
        }
      }
    }
  }
}

TEST(DenseDeathTest, DuplicateTargetsAbort) {
  Graph g = SamplingTestGraph(1);
  NeighborIndex index(g);
  const DenseSampler sampler({3}, EdgeDirection::kBoth);
  EXPECT_DEATH(sampler.SampleSeeded({5, 6, 5}, 1, &index), "target_nodes must be unique");
}

TEST(DenseDeathTest, FinalizeRejectsNeighborOutsideSample) {
  DenseBatch b;
  b.node_id_offsets = {0, 1};
  b.node_ids = {7, 8};
  b.nbr_offsets = {0};
  b.nbrs = {9};
  EXPECT_DEATH(b.FinalizeForDevice(), "nbr id missing from node_ids");
}

}  // namespace
}  // namespace mariusgnn
