// Tests for graph representation, the dual-sorted neighbor index, and partitioning.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "src/data/datasets.h"
#include "src/graph/graph.h"
#include "src/graph/neighbor_index.h"
#include "src/graph/partition.h"

namespace mariusgnn {
namespace {

Graph TinyGraph() {
  // The Figure 1/3 input graph: A=0, B=1, C=2, D=3, E=4, F=5.
  // Edges (incoming neighborhoods used by the paper example):
  //   C->A, D->A, A->B, B? ... Construct: B,C -> A is wrong; paper: one-hop incoming
  //   of A is {C, D}; of B is {C, E}; of C is {E}; of D is {C}.
  std::vector<Edge> edges = {
      {2, 0, 0},  // C->A
      {3, 0, 0},  // D->A
      {2, 1, 0},  // C->B
      {4, 1, 0},  // E->B
      {4, 2, 0},  // E->C
      {2, 3, 0},  // C->D
      {5, 2, 0},  // F->C (extra)
  };
  return Graph(6, std::move(edges));
}

TEST(Graph, Degrees) {
  Graph g = TinyGraph();
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_EQ(g.InDegrees()[0], 2);
  EXPECT_EQ(g.InDegrees()[2], 2);
  EXPECT_EQ(g.OutDegrees()[2], 3);
  EXPECT_EQ(g.OutDegrees()[0], 0);
  auto total = g.TotalDegrees();
  EXPECT_EQ(total[2], 5);
}

TEST(NeighborIndex, DegreesMatchGraph) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(index.OutDegree(v), g.OutDegrees()[static_cast<size_t>(v)]);
    EXPECT_EQ(index.InDegree(v), g.InDegrees()[static_cast<size_t>(v)]);
  }
}

TEST(NeighborIndex, AllNeighborsIncoming) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  auto nbrs = index.AllNeighbors(0, EdgeDirection::kIncoming);
  std::set<int64_t> ids;
  for (const auto& n : nbrs) {
    ids.insert(n.node);
  }
  EXPECT_EQ(ids, (std::set<int64_t>{2, 3}));
}

TEST(NeighborIndex, AllNeighborsOutgoing) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  auto nbrs = index.AllNeighbors(2, EdgeDirection::kOutgoing);
  std::set<int64_t> ids;
  for (const auto& n : nbrs) {
    ids.insert(n.node);
  }
  EXPECT_EQ(ids, (std::set<int64_t>{0, 1, 3}));
}

TEST(NeighborIndex, SampleRespectsFanout) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  Rng rng(1);
  PickScratch picks;
  std::vector<Neighbor> out;
  const int64_t count = index.SampleOneHop(2, 2, EdgeDirection::kOutgoing, rng, picks, out);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(out.size(), 2u);
  // Sampled without replacement: distinct.
  EXPECT_NE(out[0].node, out[1].node);
}

TEST(NeighborIndex, SampleAllWhenFanoutExceedsDegree) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  Rng rng(1);
  PickScratch picks;
  std::vector<Neighbor> out;
  const int64_t count = index.SampleOneHop(0, 10, EdgeDirection::kIncoming, rng, picks, out);
  EXPECT_EQ(count, 2);
}

TEST(NeighborIndex, BothDirectionsCombines) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  Rng rng(1);
  PickScratch picks;
  std::vector<Neighbor> out;
  const int64_t count = index.SampleOneHop(2, 10, EdgeDirection::kBoth, rng, picks, out);
  EXPECT_EQ(count, 5);  // 3 outgoing + 2 incoming
}

TEST(NeighborIndex, SampleCoversAllNeighborsEventually) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  Rng rng(3);
  PickScratch picks;
  std::set<int64_t> seen;
  for (int t = 0; t < 200; ++t) {
    std::vector<Neighbor> out;
    index.SampleOneHop(2, 1, EdgeDirection::kOutgoing, rng, picks, out);
    seen.insert(out[0].node);
  }
  EXPECT_EQ(seen, (std::set<int64_t>{0, 1, 3}));
}

TEST(NeighborIndex, PreservesRelations) {
  std::vector<Edge> edges = {{0, 1, 7}, {0, 2, 9}};
  Graph g(3, std::move(edges), 10);
  NeighborIndex index(g);
  auto nbrs = index.AllNeighbors(0, EdgeDirection::kOutgoing);
  ASSERT_EQ(nbrs.size(), 2u);
  for (const auto& n : nbrs) {
    EXPECT_EQ(n.rel, n.node == 1 ? 7 : 9);
  }
}

TEST(Partitioning, CoversAllNodesOnce) {
  Graph g = LiveJournalMini(0.02);
  Rng rng(1);
  Partitioning part(g, 8, PartitionAssignment::kRandom, rng);
  std::unordered_set<int64_t> seen;
  int64_t total = 0;
  for (int32_t i = 0; i < 8; ++i) {
    total += part.PartitionSize(i);
    for (int64_t v : part.NodesIn(i)) {
      EXPECT_TRUE(seen.insert(v).second);
      EXPECT_EQ(part.PartitionOf(v), i);
    }
  }
  EXPECT_EQ(total, g.num_nodes());
}

TEST(Partitioning, NearEqualSizes) {
  Graph g = LiveJournalMini(0.02);
  Rng rng(2);
  Partitioning part(g, 7, PartitionAssignment::kRandom, rng);
  int64_t min_size = g.num_nodes(), max_size = 0;
  for (int32_t i = 0; i < 7; ++i) {
    min_size = std::min(min_size, part.PartitionSize(i));
    max_size = std::max(max_size, part.PartitionSize(i));
  }
  EXPECT_LE(max_size - min_size, 1);
}

TEST(Partitioning, LocalIndexConsistent) {
  Graph g = LiveJournalMini(0.02);
  Rng rng(3);
  Partitioning part(g, 5, PartitionAssignment::kRandom, rng);
  for (int32_t i = 0; i < 5; ++i) {
    const auto& nodes = part.NodesIn(i);
    for (size_t k = 0; k < nodes.size(); ++k) {
      EXPECT_EQ(part.LocalIndexOf(nodes[k]), static_cast<int64_t>(k));
    }
  }
}

TEST(Partitioning, BucketsPartitionEdges) {
  Graph g = LiveJournalMini(0.02);
  Rng rng(4);
  Partitioning part(g, 6, PartitionAssignment::kRandom, rng);
  int64_t total = 0;
  for (int32_t i = 0; i < 6; ++i) {
    for (int32_t j = 0; j < 6; ++j) {
      for (int64_t e : part.Bucket(i, j)) {
        const Edge& edge = g.edge(e);
        EXPECT_EQ(part.PartitionOf(edge.src), i);
        EXPECT_EQ(part.PartitionOf(edge.dst), j);
      }
      total += part.BucketSize(i, j);
    }
  }
  EXPECT_EQ(total, g.num_edges());
  EXPECT_EQ(part.TotalEdges(), g.num_edges());
}

TEST(NeighborIndex, SubgraphIndexRestrictsSampling) {
  // The disk path builds an index over only the resident buckets; sampled neighbors
  // must stay inside the subgraph's edge set.
  Graph g = Fb15k237Like(0.05);
  Rng prng(6);
  Partitioning part(g, 4, PartitionAssignment::kRandom, prng);
  // Resident = partitions {0, 1}: edges among them only.
  std::vector<Edge> resident;
  std::unordered_set<int64_t> resident_nodes;
  for (int32_t a : {0, 1}) {
    for (int64_t v : part.NodesIn(a)) {
      resident_nodes.insert(v);
    }
    for (int32_t b : {0, 1}) {
      for (int64_t e : part.Bucket(a, b)) {
        resident.push_back(g.edge(e));
      }
    }
  }
  NeighborIndex index(g.num_nodes(), resident);
  Rng rng(7);
  PickScratch picks;
  std::vector<Neighbor> out;
  for (int64_t v : part.NodesIn(0)) {
    out.clear();
    index.SampleOneHop(v, 10, EdgeDirection::kBoth, rng, picks, out);
    for (const Neighbor& n : out) {
      EXPECT_TRUE(resident_nodes.count(n.node) == 1)
          << "sampled neighbor outside the resident subgraph";
    }
  }
}

TEST(NeighborIndex, GraphWithNoEdges) {
  Graph g(5, {});
  NeighborIndex index(g);
  Rng rng(1);
  PickScratch picks;
  std::vector<Neighbor> out;
  EXPECT_EQ(index.SampleOneHop(3, 4, EdgeDirection::kBoth, rng, picks, out), 0);
  EXPECT_TRUE(out.empty());
}

TEST(Partitioning, SinglePartitionHoldsEverything) {
  Graph g = Fb15k237Like(0.02);
  Rng rng(8);
  Partitioning part(g, 1, PartitionAssignment::kRandom, rng);
  EXPECT_EQ(part.PartitionSize(0), g.num_nodes());
  EXPECT_EQ(part.BucketSize(0, 0), g.num_edges());
}

TEST(Partitioning, TrainingNodesFirstPacksTrainNodes) {
  Graph g = PapersMini(0.05);
  Rng rng(5);
  const int32_t p = 16;
  Partitioning part(g, p, PartitionAssignment::kTrainingNodesFirst, rng);
  const int32_t k = part.num_training_partitions();
  EXPECT_GT(k, 0);
  EXPECT_LT(k, p);
  // Every training node lives in partitions [0, k).
  for (int64_t v : g.train_nodes()) {
    EXPECT_LT(part.PartitionOf(v), k);
  }
}

}  // namespace
}  // namespace mariusgnn
