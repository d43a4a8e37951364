// Tests for graph representation, the dual-sorted neighbor index, and partitioning.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "src/data/datasets.h"
#include "src/graph/graph.h"
#include "src/graph/neighbor_index.h"
#include "src/graph/partition.h"
#include "tests/sampling_reference.h"

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
  for (int64_t n : nbrs) {
    ids.insert(n);
  }
  EXPECT_EQ(ids, (std::set<int64_t>{2, 3}));
}

TEST(NeighborIndex, AllNeighborsOutgoing) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  auto nbrs = index.AllNeighbors(2, EdgeDirection::kOutgoing);
  std::set<int64_t> ids;
  for (int64_t n : nbrs) {
    ids.insert(n);
  }
  EXPECT_EQ(ids, (std::set<int64_t>{0, 1, 3}));
}

TEST(NeighborIndex, SampleRespectsFanout) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  Rng rng(1);
  PickScratch picks;
  std::vector<int64_t> out;
  const int64_t count = index.SampleOneHop(2, 2, EdgeDirection::kOutgoing, rng, picks, out);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(out.size(), 2u);
  // Sampled without replacement: distinct.
  EXPECT_NE(out[0], out[1]);
}

TEST(NeighborIndex, SampleAllWhenFanoutExceedsDegree) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  Rng rng(1);
  PickScratch picks;
  std::vector<int64_t> out;
  const int64_t count = index.SampleOneHop(0, 10, EdgeDirection::kIncoming, rng, picks, out);
  EXPECT_EQ(count, 2);
}

TEST(NeighborIndex, BothDirectionsCombines) {
  Graph g = TinyGraph();
  NeighborIndex index(g);
  Rng rng(1);
  PickScratch picks;
  std::vector<int64_t> out;
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
    std::vector<int64_t> out;
    index.SampleOneHop(2, 1, EdgeDirection::kOutgoing, rng, picks, out);
    seen.insert(out[0]);
  }
  EXPECT_EQ(seen, (std::set<int64_t>{0, 1, 3}));
}

// Every node's out and in lists, list for list, against the edge-order reference.
void ExpectListsMatchEdgeOrder(const NeighborIndex& index, int64_t num_nodes,
                               const std::vector<Edge>& edges) {
  ASSERT_EQ(index.num_nodes(), num_nodes);
  ASSERT_EQ(index.num_edges(), static_cast<int64_t>(edges.size()));
  const auto out = RefNeighborLists(num_nodes, edges, /*outgoing=*/true);
  const auto in = RefNeighborLists(num_nodes, edges, /*outgoing=*/false);
  for (int64_t v = 0; v < num_nodes; ++v) {
    const size_t sv = static_cast<size_t>(v);
    ASSERT_EQ(index.AllNeighbors(v, EdgeDirection::kOutgoing), out[sv]) << "node " << v;
    ASSERT_EQ(index.AllNeighbors(v, EdgeDirection::kIncoming), in[sv]) << "node " << v;
    ASSERT_EQ(index.OutDegree(v), static_cast<int64_t>(out[sv].size()));
    ASSERT_EQ(index.InDegree(v), static_cast<int64_t>(in[sv].size()));
  }
}

// Hubs, self loops and isolated nodes.
TEST(NeighborIndex, ListsAreEdgeOrderStableSort) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = SamplingTestGraph(seed);
    ExpectListsMatchEdgeOrder(NeighborIndex(g), g.num_nodes(), g.edges());
  }
}

// Each of 40 (src, dst) pairs repeated about 15 times under varying relations,
// interleaved, so a list holds runs of equal ids among distinct ones.
TEST(NeighborIndex, DuplicateEdgesKeepEdgeOrder) {
  Rng rng(9);
  std::vector<Edge> pairs;
  for (int k = 0; k < 40; ++k) {
    pairs.push_back({rng.UniformInt(0, 30), rng.UniformInt(0, 30), 0});
  }
  std::vector<Edge> edges;
  for (int e = 0; e < 600; ++e) {
    Edge edge = pairs[static_cast<size_t>(rng.UniformInt(40))];
    edge.rel = static_cast<int32_t>(rng.UniformInt(4));
    edges.push_back(edge);
  }
  ExpectListsMatchEdgeOrder(NeighborIndex(32, edges), 32, edges);
}

// The resident index built from a set's buckets equals the index over the same
// edges gathered a-major, b-minor, ascending edge id, for sets in any order.
TEST(NeighborIndex, BucketBuiltEqualsEdgeListBuilt) {
  const Graph g = SamplingTestGraph(4);
  Rng prng(5);
  Partitioning part(g, 5, PartitionAssignment::kRandom, prng);
  const std::vector<std::vector<int32_t>> sets = {{0}, {0, 1}, {3, 1}, {4, 0, 2}, {2, 4, 1, 3, 0}};
  for (const std::vector<int32_t>& set : sets) {
    std::vector<Edge> resident;
    for (int32_t a : set) {
      for (int32_t b : set) {
        for (int64_t e : part.Bucket(a, b)) {
          resident.push_back(g.edge(e));
        }
      }
    }
    const NeighborIndex want(g.num_nodes(), resident);
    const NeighborIndex got(g, part, set);
    ASSERT_EQ(got.num_edges(), want.num_edges());
    ExpectListsMatchEdgeOrder(got, g.num_nodes(), resident);
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

// Each bucket is the ascending list of edge ids whose endpoints fall in its
// partitions, for both assignment modes.
TEST(Partitioning, BucketsAreAscendingEdgeIdFilters) {
  const Graph g = PapersMini(0.05);
  for (PartitionAssignment mode :
       {PartitionAssignment::kRandom, PartitionAssignment::kTrainingNodesFirst}) {
    Rng rng(10);
    const int32_t p = 6;
    Partitioning part(g, p, mode, rng);
    for (int32_t i = 0; i < p; ++i) {
      for (int32_t j = 0; j < p; ++j) {
        std::vector<int64_t> want;
        for (int64_t e = 0; e < g.num_edges(); ++e) {
          if (part.PartitionOf(g.edge(e).src) == i && part.PartitionOf(g.edge(e).dst) == j) {
            want.push_back(e);
          }
        }
        const EdgeIdRange bucket = part.Bucket(i, j);
        EXPECT_EQ(std::vector<int64_t>(bucket.begin(), bucket.end()), want)
            << "bucket (" << i << ", " << j << ")";
        EXPECT_EQ(part.BucketSize(i, j), static_cast<int64_t>(want.size()));
      }
    }
  }
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
  std::vector<int64_t> out;
  for (int64_t v : part.NodesIn(0)) {
    out.clear();
    index.SampleOneHop(v, 10, EdgeDirection::kBoth, rng, picks, out);
    for (int64_t n : out) {
      EXPECT_TRUE(resident_nodes.count(n) == 1)
          << "sampled neighbor outside the resident subgraph";
    }
  }
}

TEST(NeighborIndex, GraphWithNoEdges) {
  Graph g(5, {});
  NeighborIndex index(g);
  Rng rng(1);
  PickScratch picks;
  std::vector<int64_t> out;
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
