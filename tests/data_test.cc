// Tests for the synthetic dataset generators.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <unordered_set>

#include "src/data/datasets.h"
#include "src/data/generators.h"
#include "src/data/serialize.h"
#include "src/util/binary_io.h"

namespace mariusgnn {
namespace {

TEST(Generators, BarabasiAlbertShape) {
  Rng rng(1);
  auto edges = BarabasiAlbertEdges(1000, 5, rng);
  EXPECT_EQ(edges.size(), static_cast<size_t>(5 + (1000 - 6) * 5));
  for (const Edge& e : edges) {
    EXPECT_GE(e.src, 0);
    EXPECT_LT(e.src, 1000);
    EXPECT_GE(e.dst, 0);
    EXPECT_LT(e.dst, 1000);
  }
}

TEST(Generators, BarabasiAlbertPowerLawish) {
  // Preferential attachment: max degree far exceeds mean degree.
  Rng rng(2);
  auto edges = BarabasiAlbertEdges(5000, 4, rng);
  Graph g(5000, std::move(edges));
  auto total = g.TotalDegrees();
  const int64_t max_deg = *std::max_element(total.begin(), total.end());
  const double mean_deg = 2.0 * static_cast<double>(g.num_edges()) / 5000.0;
  EXPECT_GT(static_cast<double>(max_deg), 8.0 * mean_deg);
}

TEST(Generators, ErdosRenyiNoSelfLoops) {
  Rng rng(3);
  auto edges = ErdosRenyiEdges(100, 2000, rng);
  EXPECT_EQ(edges.size(), 2000u);
  for (const Edge& e : edges) {
    EXPECT_NE(e.src, e.dst);
  }
}

TEST(Generators, ZipfRelationsSkewed) {
  Rng rng(4);
  auto edges = ErdosRenyiEdges(100, 20000, rng);
  AssignZipfRelations(edges, 50, rng);
  std::vector<int64_t> counts(50, 0);
  for (const Edge& e : edges) {
    ASSERT_GE(e.rel, 0);
    ASSERT_LT(e.rel, 50);
    ++counts[static_cast<size_t>(e.rel)];
  }
  // Relation 0 dominates relation 25 by roughly 25x under Zipf(1).
  EXPECT_GT(counts[0], counts[25] * 5);
}

TEST(Generators, CommunityGraphLearnableSignal) {
  CommunityGraphConfig config;
  config.num_nodes = 2000;
  config.num_communities = 8;
  Rng rng(5);
  Graph g = MakeCommunityGraph(config, rng);
  EXPECT_TRUE(g.has_features());
  EXPECT_EQ(g.num_classes(), 8);
  EXPECT_EQ(g.labels().size(), 2000u);
  EXPECT_FALSE(g.train_nodes().empty());

  // Edges are mostly intra-community.
  int64_t intra = 0;
  for (const Edge& e : g.edges()) {
    if (g.labels()[static_cast<size_t>(e.src)] == g.labels()[static_cast<size_t>(e.dst)]) {
      ++intra;
    }
  }
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(g.num_edges()), 0.6);
}

TEST(Generators, CommunityGraphSplitsDisjoint) {
  CommunityGraphConfig config;
  config.num_nodes = 3000;
  Rng rng(6);
  Graph g = MakeCommunityGraph(config, rng);
  std::unordered_set<int64_t> seen;
  for (const auto* split : {&g.train_nodes(), &g.valid_nodes(), &g.test_nodes()}) {
    for (int64_t v : *split) {
      EXPECT_TRUE(seen.insert(v).second) << "node in two splits";
    }
  }
}

TEST(Generators, KnowledgeGraphSplitsDisjointAndComplete) {
  KnowledgeGraphConfig config;
  config.num_nodes = 2000;
  config.edges_per_node = 6;
  Rng rng(7);
  Graph g = MakeKnowledgeGraph(config, rng);
  std::unordered_set<int64_t> seen;
  for (const auto* split : {&g.train_edges(), &g.valid_edges(), &g.test_edges()}) {
    for (int64_t e : *split) {
      EXPECT_TRUE(seen.insert(e).second);
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), g.num_edges());
  EXPECT_FALSE(g.valid_edges().empty());
  EXPECT_FALSE(g.test_edges().empty());
}

TEST(Datasets, NamedDatasetsHaveExpectedShape) {
  Graph fb = Fb15k237Like(0.1);
  EXPECT_GT(fb.num_nodes(), 1000);
  EXPECT_EQ(fb.num_relations(), 237);
  EXPECT_GT(fb.num_edges(), fb.num_nodes());

  Graph papers = PapersMini(0.1);
  EXPECT_TRUE(papers.has_features());
  EXPECT_EQ(papers.features().cols(), 64);
  EXPECT_EQ(papers.num_classes(), 32);

  Graph lj = LiveJournalMini(0.1);
  EXPECT_EQ(lj.num_relations(), 1);
}

TEST(Datasets, DeterministicForSameSeed) {
  Graph a = Fb15k237Like(0.05, 42);
  Graph b = Fb15k237Like(0.05, 42);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int64_t e = 0; e < std::min<int64_t>(a.num_edges(), 100); ++e) {
    EXPECT_EQ(a.edge(e), b.edge(e));
  }
}

TEST(Datasets, ScaleChangesSize) {
  Graph small = WikiMini(0.02);
  Graph large = WikiMini(0.08);
  EXPECT_LT(small.num_nodes(), large.num_nodes());
}

TEST(Serialize, KnowledgeGraphRoundTrip) {
  Graph g = Fb15k237Like(0.05);
  const std::string prefix = TempPath("ser_kg");
  SaveGraph(g, prefix);
  Graph back = LoadGraph(prefix);
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.num_relations(), g.num_relations());
  for (int64_t e = 0; e < g.num_edges(); e += 97) {
    EXPECT_EQ(back.edge(e), g.edge(e));
  }
  EXPECT_EQ(back.train_edges(), g.train_edges());
  EXPECT_EQ(back.valid_edges(), g.valid_edges());
  EXPECT_EQ(back.test_edges(), g.test_edges());
  EXPECT_FALSE(back.has_features());
  RemoveGraphFiles(prefix);
}

TEST(Serialize, FeatureGraphRoundTrip) {
  Graph g = PapersMini(0.05);
  const std::string prefix = TempPath("ser_nc");
  SaveGraph(g, prefix);
  Graph back = LoadGraph(prefix);
  ASSERT_TRUE(back.has_features());
  EXPECT_EQ(back.features().rows(), g.features().rows());
  EXPECT_EQ(back.features().cols(), g.features().cols());
  for (int64_t i = 0; i < g.features().size(); i += 131) {
    EXPECT_FLOAT_EQ(back.features().data()[i], g.features().data()[i]);
  }
  EXPECT_EQ(back.labels(), g.labels());
  EXPECT_EQ(back.num_classes(), g.num_classes());
  EXPECT_EQ(back.train_nodes(), g.train_nodes());
  EXPECT_EQ(back.test_nodes(), g.test_nodes());
  RemoveGraphFiles(prefix);
}

TEST(Serialize, EmptySplitsSurvive) {
  Graph g(10, {{0, 1, 0}, {1, 2, 0}});
  const std::string prefix = TempPath("ser_min");
  SaveGraph(g, prefix);
  Graph back = LoadGraph(prefix);
  EXPECT_EQ(back.num_edges(), 2);
  EXPECT_TRUE(back.train_edges().empty());
  EXPECT_TRUE(back.labels().empty());
  RemoveGraphFiles(prefix);
}

// LoadGraph trusts no count in .meta: a truncated .edges file fails the size
// check before anything is allocated, and every edge's endpoints and relation
// are checked, with the first bad edge named.
TEST(SerializeDeathTest, TruncatedEdgesFileAborts) {
  Graph g(10, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}});
  const std::string prefix = TempPath("ser_trunc");
  SaveGraph(g, prefix);
  {
    File f(prefix + ".edges");
    f.Resize(2 * sizeof(Edge));
  }
  EXPECT_DEATH(LoadGraph(prefix), "edge count exceeds the .edges file size");
  RemoveGraphFiles(prefix);
}

TEST(SerializeDeathTest, OutOfRangeEndpointAborts) {
  Graph g(4, {{0, 1, 0}, {2, 3, 0}, {1, 4, 0}});  // edge 2's dst is past the last node
  const std::string prefix = TempPath("ser_dst");
  SaveGraph(g, prefix);
  EXPECT_DEATH(LoadGraph(prefix), "edge 2 .src 1, dst 4, rel 0. is outside");
  RemoveGraphFiles(prefix);
}

TEST(SerializeDeathTest, OutOfRangeSourceOrRelationAborts) {
  Graph g(4, {{0, 1, 1}, {-1, 2, 0}}, 2);  // edge 1's src is negative
  const std::string prefix = TempPath("ser_src");
  SaveGraph(g, prefix);
  EXPECT_DEATH(LoadGraph(prefix), "edge 1 .src -1, dst 2, rel 0. is outside");
  Graph h(4, {{0, 1, 1}, {3, 2, 2}}, 2);  // edge 1's relation is past the last one
  SaveGraph(h, prefix);
  EXPECT_DEATH(LoadGraph(prefix), "edge 1 .src 3, dst 2, rel 2. is outside");
  RemoveGraphFiles(prefix);
}

// A wrong prefix is a clean diagnostic: LoadGraph opens its inputs read-only,
// so it aborts naming the missing file and leaves nothing behind.
TEST(SerializeDeathTest, MissingPrefixAbortsNamingThePathAndCreatesNoFile) {
  const std::string prefix = TempPath("ser_missing");
  EXPECT_DEATH(LoadGraph(prefix), "cannot open " + prefix + ".meta for reading");
  EXPECT_DEATH(ReadVector<int64_t>(prefix + ".labels"),
               "cannot open " + prefix + ".labels for reading");
  for (const char* ext : {".meta", ".edges", ".feat", ".labels", ".splits"}) {
    struct stat st;
    EXPECT_NE(::stat((prefix + ext).c_str(), &st), 0) << prefix + ext << " was created";
  }
}

}  // namespace
}  // namespace mariusgnn
