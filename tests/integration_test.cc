// Cross-module integration tests reproducing the paper's qualitative claims at test
// scale: DENSE vs layer-wise sampling cost, COMET vs BETA accuracy, disk vs memory
// consistency, and auto-tuned configurations running end to end.
#include <gtest/gtest.h>

#include "src/core/link_prediction_trainer.h"
#include "src/core/node_classification_trainer.h"
#include "src/data/datasets.h"
#include "src/policy/autotune.h"
#include "src/policy/beta.h"
#include "src/policy/bias.h"
#include "src/policy/comet.h"
#include "src/util/timer.h"

namespace mariusgnn {
namespace {

TEST(Integration, DenseSamplingFasterThanLayerwiseAtDepth) {
  // Table 6 shape: the sampling-time gap grows with GNN depth.
  Graph g = Fb15k237Like(0.3);
  NeighborIndex index(g);
  std::vector<int64_t> targets;
  for (int64_t v = 0; v < 256; ++v) {
    targets.push_back(v * 3);
  }
  const std::vector<int64_t> fanouts = {10, 10, 10};
  const DenseSampler dense(fanouts, EdgeDirection::kBoth);
  const LayerwiseSampler layerwise(fanouts, EdgeDirection::kBoth);

  // Warm up, then time several rounds.
  dense.SampleSeeded(targets, MixSeed(1, 0), &index);
  layerwise.SampleSeeded(targets, MixSeed(1, 0), &index);
  WallTimer t1;
  for (int i = 0; i < 5; ++i) {
    dense.SampleSeeded(targets, MixSeed(1, i + 1), &index);
  }
  const double dense_ms = t1.Millis();
  WallTimer t2;
  for (int i = 0; i < 5; ++i) {
    layerwise.SampleSeeded(targets, MixSeed(1, i + 1), &index);
  }
  const double layer_ms = t2.Millis();
  EXPECT_LT(dense_ms, layer_ms);
}

TEST(Integration, DiskTrainingApproachesInMemoryMrr) {
  // Table 8 shape: COMET disk-based MRR lands near in-memory MRR.
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config;
  config.fanouts = {};
  config.dims = {16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = false;

  LinkPredictionTrainer mem(&g, config);
  for (int e = 0; e < 6; ++e) {
    mem.TrainEpoch();
  }
  const double mem_mrr = mem.EvaluateMrr(100, 300);

  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  LinkPredictionTrainer disk(&g, config);
  for (int e = 0; e < 6; ++e) {
    disk.TrainEpoch();
  }
  const double disk_mrr = disk.EvaluateMrr(100, 300);
  EXPECT_GT(disk_mrr, 0.6 * mem_mrr);
}

TEST(Integration, CometBiasBelowBetaOverEpochs) {
  // Averaged over epochs (fresh random logical groupings), COMET keeps bias lower.
  Graph g = Fb15k237Like(0.15);
  Rng rng(3);
  Partitioning partitioning(g, 16, PartitionAssignment::kRandom, rng);
  CometPolicy comet(8);
  BetaPolicy beta;
  double comet_bias = 0.0, beta_bias = 0.0;
  for (int e = 0; e < 3; ++e) {
    comet_bias += EdgePermutationBias(comet.GenerateEpoch(partitioning, 8, rng),
                                      partitioning, g);
    beta_bias += EdgePermutationBias(beta.GenerateEpoch(partitioning, 8, rng),
                                     partitioning, g);
  }
  EXPECT_LT(comet_bias, beta_bias);
}

TEST(Integration, AutoTunedConfigRunsEndToEnd) {
  Graph g = Fb15k237Like(0.05);
  // Force a disk configuration by pretending CPU memory is tiny.
  AutoTuneInput input;
  input.num_nodes = g.num_nodes();
  input.num_edges = g.num_edges();
  input.dim = 16;
  input.cpu_bytes = static_cast<double>(g.num_nodes()) * 16 * 4 / 2 +
                    static_cast<double>(g.num_edges()) * 20;
  const AutoTuneResult tuned = AutoTune(input);
  ASSERT_FALSE(tuned.fits_in_memory);

  TrainingConfig config;
  config.fanouts = {};
  config.dims = {16};
  config.batch_size = 512;
  config.num_negatives = 16;
  config.pipeline.enabled = false;
  config.storage.use_disk = true;
  config.storage.num_physical = tuned.num_physical;
  config.storage.num_logical = tuned.num_logical;
  config.storage.buffer_capacity = tuned.buffer_capacity;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  const EpochStats second = trainer.TrainEpoch();
  EXPECT_LT(second.loss, first.loss);
}

TEST(Integration, PrefetchReducesReportedStalls) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config;
  config.fanouts = {};
  config.dims = {16};
  config.batch_size = 256;
  config.num_negatives = 16;
  config.pipeline.enabled = false;
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;

  config.storage.prefetch = true;
  LinkPredictionTrainer with(&g, config);
  const EpochStats s_with = with.TrainEpoch();

  config.storage.prefetch = false;
  LinkPredictionTrainer without(&g, config);
  const EpochStats s_without = without.TrainEpoch();

  EXPECT_LE(s_with.io_stall_seconds, s_without.io_stall_seconds + 1e-12);
}

TEST(Integration, GnnDiskNodeClassificationMatchesMemoryAccuracy) {
  // Table 3 shape: disk-based NC accuracy is within a small gap of in-memory.
  Graph g = PapersMini(0.06);
  TrainingConfig config;
  config.fanouts = {10, 5};
  config.dims = {64, 32, 32};
  config.batch_size = 256;
  config.pipeline.enabled = false;
  config.weight_lr = 0.05f;

  NodeClassificationTrainer mem(&g, config);
  for (int e = 0; e < 4; ++e) {
    mem.TrainEpoch();
  }
  const double mem_acc = mem.EvaluateTestAccuracy();

  config.storage.use_disk = true;
  config.storage.num_physical = 16;
  config.storage.buffer_capacity = 8;
  NodeClassificationTrainer disk(&g, config);
  for (int e = 0; e < 4; ++e) {
    disk.TrainEpoch();
  }
  const double disk_acc = disk.EvaluateTestAccuracy();
  EXPECT_GT(mem_acc, 0.2);
  EXPECT_GT(disk_acc, mem_acc - 0.15);
}

}  // namespace
}  // namespace mariusgnn
