// Serving-tier tests: the batched concurrent path must answer bitwise-
// identically to serial single-query evaluation (the determinism contract of
// src/serve/server.h), hot snapshot swaps must never drop a request or mix
// epochs within one answer, a retired format-v1 checkpoint is refused without
// disturbing the epoch being served, and a query naming a node or relation the
// graph does not have aborts before it is queued.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/link_prediction_trainer.h"
#include "src/core/node_classification_trainer.h"
#include "src/data/datasets.h"
#include "src/serve/server.h"
#include "src/util/binary_io.h"
#include "tests/checkpoint_test_util.h"

namespace mariusgnn {
namespace {

TrainingConfig SmallLpConfig() {
  TrainingConfig config;
  config.fanouts = {5};
  config.dims = {16, 16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = false;
  config.pipeline.parallel_compute = false;
  return config;
}

TrainingConfig SmallNcConfig() {
  TrainingConfig config;
  config.fanouts = {10, 5};
  config.dims = {64, 32, 32};
  config.batch_size = 256;
  config.pipeline.enabled = false;
  config.pipeline.parallel_compute = false;
  config.weight_lr = 0.05f;
  return config;
}

// Trains a small LP model and writes its checkpoint; returns the path.
std::string TrainLpCheckpoint(const Graph& g, const TrainingConfig& config,
                              int epochs, const char* tag) {
  LinkPredictionTrainer trainer(&g, config);
  for (int e = 0; e < epochs; ++e) {
    trainer.TrainEpoch();
  }
  const std::string path = TempPath(tag);
  trainer.SaveCheckpoint(path);
  return path;
}

// A few link queries spread over the node-id range, each scoring `fan`
// candidates (with a deliberate duplicate to exercise target dedup).
struct LinkQuery {
  int64_t src;
  int32_t rel;
  std::vector<int64_t> candidates;
};

std::vector<LinkQuery> MakeLinkQueries(const Graph& g, int count, int fan) {
  std::vector<LinkQuery> queries;
  for (int q = 0; q < count; ++q) {
    LinkQuery lq;
    lq.src = (static_cast<int64_t>(q) * 37 + 3) % g.num_nodes();
    lq.rel = static_cast<int32_t>(q % g.num_relations());
    for (int j = 0; j < fan; ++j) {
      lq.candidates.push_back((lq.src + 11 * (j + 1)) % g.num_nodes());
    }
    lq.candidates.push_back(lq.candidates.front());  // duplicate candidate
    lq.candidates.push_back(lq.src);                 // src as its own candidate
    queries.push_back(std::move(lq));
  }
  return queries;
}

void ExpectBitwiseEqual(const std::vector<float>& got,
                        const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "value " << i;
  }
}

TEST(Serve, BatchedMatchesUnbatchedLinkPrediction) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  const std::string path = TrainLpCheckpoint(g, config, 2, "mgnn_serve_lp");

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;
  EXPECT_EQ(server.current_epoch(), 2u);

  const std::vector<LinkQuery> queries = MakeLinkQueries(g, 24, 16);

  // Single-threaded: each ScoreLinks is a batch of one through the
  // block-diagonal merge path; the oracle runs the direct per-query forward.
  for (const LinkQuery& lq : queries) {
    const ServeResult got = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    const ServeResult want =
        server.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates);
    EXPECT_EQ(got.epoch, 2u);
    ExpectBitwiseEqual(got.values, want.values);
  }

  // Concurrent: the same queries from many client threads coalesce into larger
  // batches; every answer must still match the serial oracle bitwise.
  std::vector<ServeResult> results(queries.size());
  std::vector<std::thread> clients;
  for (size_t q = 0; q < queries.size(); ++q) {
    clients.emplace_back([&, q] {
      results[q] = server.ScoreLinks(queries[q].src, queries[q].rel,
                                     queries[q].candidates);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    const ServeResult want = server.ScoreLinksUnbatched(
        queries[q].src, queries[q].rel, queries[q].candidates);
    ExpectBitwiseEqual(results[q].values, want.values);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, 2 * queries.size());
  EXPECT_GE(stats.max_coalesced, 1);
  std::remove(path.c_str());
}

TEST(Serve, BatchedMatchesUnbatchedNodeClassification) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  NodeClassificationTrainer trainer(&g, config);
  trainer.TrainEpoch();
  const std::string path = TempPath("mgnn_serve_nc");
  trainer.SaveCheckpoint(path);

  InferenceServer server(&g, TaskKind::kNodeClassification, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;

  std::vector<int64_t> nodes(g.test_nodes().begin(),
                             g.test_nodes().begin() +
                                 std::min<size_t>(24, g.test_nodes().size()));
  for (int64_t node : nodes) {
    const ServeResult got = server.Classify(node);
    const ServeResult want = server.ClassifyUnbatched(node);
    EXPECT_EQ(got.epoch, 1u);
    ASSERT_EQ(static_cast<int64_t>(got.values.size()), g.num_classes());
    ExpectBitwiseEqual(got.values, want.values);
  }

  std::vector<ServeResult> results(nodes.size());
  std::vector<std::thread> clients;
  for (size_t q = 0; q < nodes.size(); ++q) {
    clients.emplace_back([&, q] { results[q] = server.Classify(nodes[q]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t q = 0; q < nodes.size(); ++q) {
    ExpectBitwiseEqual(results[q].values,
                       server.ClassifyUnbatched(nodes[q]).values);
  }
  std::remove(path.c_str());
}

TEST(Serve, DecoderOnlyLinkPrediction) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  const std::string path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_lp_dec");

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;
  for (const LinkQuery& lq : MakeLinkQueries(g, 8, 8)) {
    const ServeResult got = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    ExpectBitwiseEqual(
        got.values,
        server.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates).values);
  }
  std::remove(path.c_str());
}

TEST(Serve, LayerwiseModelServes) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.sampler = SamplerKind::kLayerwise;
  const std::string path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_lp_lw");

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;
  for (const LinkQuery& lq : MakeLinkQueries(g, 6, 8)) {
    const ServeResult got = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    ExpectBitwiseEqual(
        got.values,
        server.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates).values);
  }
  std::remove(path.c_str());
}

TEST(Serve, LoadSnapshotRejectsV1AndKeepsServingPreviousEpoch) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  LinkPredictionTrainer trainer(&g, config);
  trainer.TrainEpoch();
  const std::string e1_path = TempPath("mgnn_serve_v1_e1");
  trainer.SaveCheckpoint(e1_path);
  trainer.TrainEpoch();
  const std::string e2_path = TempPath("mgnn_serve_v1_e2");
  trainer.SaveCheckpoint(e2_path);

  // The epoch-2 snapshot down-converted to the retired v1 layout.
  Checkpoint ck;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(e2_path, &ck, &error)) << error;
  const std::string v1_path = TempPath("mgnn_serve_v1");
  WriteReferenceCheckpoint(ck, v1_path, /*version=*/1);

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  ASSERT_TRUE(server.LoadSnapshot(e1_path, &error)) << error;
  const std::vector<LinkQuery> queries = MakeLinkQueries(g, 8, 8);
  std::vector<ServeResult> before;
  for (const LinkQuery& lq : queries) {
    before.push_back(server.ScoreLinks(lq.src, lq.rel, lq.candidates));
  }

  EXPECT_FALSE(server.LoadSnapshot(v1_path, &error));
  EXPECT_NE(error.find("unsupported checkpoint format version 1"), std::string::npos)
      << error;
  EXPECT_EQ(server.current_epoch(), 1u);
  EXPECT_EQ(server.stats().snapshot_swaps, 0u);
  for (size_t q = 0; q < queries.size(); ++q) {
    const LinkQuery& lq = queries[q];
    const ServeResult after = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    EXPECT_EQ(after.epoch, 1u);
    ExpectBitwiseEqual(after.values, before[q].values);
  }
  std::remove(e1_path.c_str());
  std::remove(e2_path.c_str());
  std::remove(v1_path.c_str());
}

TEST(Serve, LoadSnapshotRejectsMismatches) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  const std::string path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_rej");

  std::string error;
  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  EXPECT_FALSE(server.LoadSnapshot(path + ".does_not_exist", &error));

  // A config with different dims must be rejected by section-shape validation.
  ModelConfig wrong = config.model_config();
  wrong.dims = {32, 32};
  InferenceServer wrong_server(&g, TaskKind::kLinkPrediction, wrong, {});
  EXPECT_FALSE(wrong_server.LoadSnapshot(path, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// Hot swap under load: clients hammer the server while the main thread adopts
// a new epoch mid-stream. Every request must be answered (zero drops), every
// answer must carry exactly one epoch tag, and its values must match that
// epoch's serial oracle — no torn or mixed-epoch results. This test is the
// TSan gate for the serving tier.
TEST(Serve, HotSwapUnderLoad) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();

  LinkPredictionTrainer trainer(&g, config);
  trainer.TrainEpoch();
  const std::string ck1 = TempPath("mgnn_serve_swap1");
  trainer.SaveCheckpoint(ck1);
  trainer.TrainEpoch();
  const std::string ck2 = TempPath("mgnn_serve_swap2");
  trainer.SaveCheckpoint(ck2);

  // Per-epoch oracles from single-snapshot servers.
  InferenceServer ref1(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  InferenceServer ref2(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(ref1.LoadSnapshot(ck1, &error)) << error;
  ASSERT_TRUE(ref2.LoadSnapshot(ck2, &error)) << error;

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  ASSERT_TRUE(server.LoadSnapshot(ck1, &error)) << error;

  const std::vector<LinkQuery> queries = MakeLinkQueries(g, 8, 8);
  constexpr int kClients = 8;
  constexpr int kRoundsPerClient = 12;
  std::vector<std::vector<ServeResult>> results(
      kClients, std::vector<ServeResult>(kRoundsPerClient));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const LinkQuery& lq = queries[static_cast<size_t>(c) % queries.size()];
      for (int r = 0; r < kRoundsPerClient; ++r) {
        results[c][r] = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
      }
    });
  }
  // Swap to epoch 2 while the clients are mid-flight.
  ASSERT_TRUE(server.LoadSnapshot(ck2, &error)) << error;
  for (std::thread& t : clients) {
    t.join();
  }

  for (int c = 0; c < kClients; ++c) {
    const LinkQuery& lq = queries[static_cast<size_t>(c) % queries.size()];
    const ServeResult want1 = ref1.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates);
    const ServeResult want2 = ref2.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates);
    for (int r = 0; r < kRoundsPerClient; ++r) {
      const ServeResult& got = results[c][r];
      ASSERT_TRUE(got.epoch == 1u || got.epoch == 2u) << "epoch " << got.epoch;
      ExpectBitwiseEqual(got.values,
                         got.epoch == 1u ? want1.values : want2.values);
    }
  }
  // Zero drops: every request produced a full candidate vector (checked above);
  // the server counted them all and performed exactly one swap.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kClients) * kRoundsPerClient);
  EXPECT_EQ(stats.snapshot_swaps, 1u);
  EXPECT_EQ(server.current_epoch(), 2u);
  const LinkQuery& lq = queries.front();
  EXPECT_EQ(server.ScoreLinks(lq.src, lq.rel, lq.candidates).epoch, 2u);
  std::remove(ck1.c_str());
  std::remove(ck2.c_str());
}

// Out-of-range query ids abort on the caller's thread with the bad value in
// the message, for the batched and the unbatched path alike: the embedding
// gather and the decoder's relation lookup index the tables unchecked.
class ServeDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = Fb15k237Like(0.03);
    config_ = SmallLpConfig();
    config_.fanouts = {};
    config_.dims = {16};
    path_ = TrainLpCheckpoint(graph_, config_, 1, "mgnn_serve_death");
    server_ = std::make_unique<InferenceServer>(
        &graph_, TaskKind::kLinkPrediction, config_.model_config(), ServeOptions{});
    std::string error;
    ASSERT_TRUE(server_->LoadSnapshot(path_, &error)) << error;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Graph graph_;
  TrainingConfig config_;
  std::string path_;
  std::unique_ptr<InferenceServer> server_;
};

TEST_F(ServeDeathTest, ScoreLinksRejectsOutOfRangeSource) {
  const int64_t n = graph_.num_nodes();
  EXPECT_DEATH(server_->ScoreLinks(n + 5, 0, {0, 1}),
               "serve: node " + std::to_string(n + 5) + " is out of range");
  EXPECT_DEATH(server_->ScoreLinks(n * 1000, 0, {0}),
               "serve: node " + std::to_string(n * 1000) + " is out of range");
  EXPECT_DEATH(server_->ScoreLinks(-1, 0, {0}), "serve: node -1 is out of range");
  EXPECT_DEATH(server_->ScoreLinksUnbatched(n + 5, 0, {0, 1}),
               "serve: node " + std::to_string(n + 5) + " is out of range");
}

TEST_F(ServeDeathTest, ScoreLinksRejectsOutOfRangeRelation) {
  const int32_t r = graph_.num_relations();
  EXPECT_DEATH(server_->ScoreLinks(0, r + 7, {0, 1}),
               "serve: relation " + std::to_string(r + 7) + " is out of range");
  EXPECT_DEATH(server_->ScoreLinks(0, -1, {0, 1}),
               "serve: relation -1 is out of range");
  EXPECT_DEATH(server_->ScoreLinksUnbatched(0, r, {0, 1}),
               "serve: relation " + std::to_string(r) + " is out of range");
}

TEST_F(ServeDeathTest, ScoreLinksRejectsOutOfRangeCandidate) {
  const int64_t n = graph_.num_nodes();
  EXPECT_DEATH(server_->ScoreLinks(0, 0, {n + 3}),
               "serve: candidate node " + std::to_string(n + 3) + " is out of range");
  EXPECT_DEATH(server_->ScoreLinks(0, 0, {1, 2, -4}),
               "serve: candidate node -4 is out of range");
  EXPECT_DEATH(server_->ScoreLinksUnbatched(0, 0, {1, n}),
               "serve: candidate node " + std::to_string(n) + " is out of range");
}

TEST(ServeNcDeathTest, ClassifyRejectsOutOfRangeNode) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  NodeClassificationTrainer trainer(&g, config);
  trainer.TrainEpoch();
  const std::string path = TempPath("mgnn_serve_nc_death");
  trainer.SaveCheckpoint(path);
  InferenceServer server(&g, TaskKind::kNodeClassification, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;
  const int64_t n = g.num_nodes();
  EXPECT_DEATH(server.Classify(n + 2),
               "serve: node " + std::to_string(n + 2) + " is out of range");
  EXPECT_DEATH(server.Classify(-3), "serve: node -3 is out of range");
  EXPECT_DEATH(server.ClassifyUnbatched(n),
               "serve: node " + std::to_string(n) + " is out of range");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mariusgnn
