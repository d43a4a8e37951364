// Trainer-level tests: models learn (loss falls, metrics beat chance) in every
// configuration the paper exercises — in-memory/disk, DENSE/baseline, LP/NC.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

#include "src/core/link_prediction_trainer.h"
#include "src/core/node_classification_trainer.h"
#include "src/data/datasets.h"
#include "src/eval/metrics.h"
#include "src/util/binary_io.h"

namespace mariusgnn {
namespace {

TrainingConfig SmallLpConfig() {
  TrainingConfig config;
  config.fanouts = {5};
  config.dims = {16, 16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = false;
  return config;
}

TEST(LinkPrediction, DecoderOnlyLossDecreases) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, DecoderOnlyMrrBeatsChance) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  LinkPredictionTrainer trainer(&g, config);
  for (int e = 0; e < 5; ++e) {
    trainer.TrainEpoch();
  }
  const double mrr = trainer.EvaluateMrr(100, 300);
  // Random ranking against 100 negatives gives MRR ~ 0.05.
  EXPECT_GT(mrr, 0.15);
}

TEST(LinkPrediction, GraphSageLearns) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss * 0.95);
  EXPECT_GT(trainer.EvaluateMrr(100, 200), 0.10);
}

TEST(LinkPrediction, GatRuns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.layer_type = GnnLayerType::kGat;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  const EpochStats second = trainer.TrainEpoch();
  EXPECT_LT(second.loss, first.loss);
}

TEST(LinkPrediction, PipelinedMatchesUnpipelinedProgress) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = true;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 2; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, BaselineSamplerLearns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.sampler = SamplerKind::kLayerwise;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 2; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, DiskCometTrainsAndTracksIo) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  config.storage.policy = "comet";
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EXPECT_GT(first.io_seconds, 0.0);
  EXPECT_GT(first.num_partition_sets, 1);
  EpochStats last;
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GT(trainer.EvaluateMrr(100, 200), 0.08);
}

TEST(LinkPrediction, DiskIoSecondsRepeatForSameSeed) {
  // Modeled IO is a function of the partition plan: the IO engine runs every
  // request as its own transfer, so two fresh trainers charge the same seconds.
  // Only the order of the float sums follows completion order.
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  config.storage.policy = "comet";
  LinkPredictionTrainer a(&g, config);
  LinkPredictionTrainer b(&g, config);
  for (int e = 0; e < 3; ++e) {
    const double io_a = a.TrainEpoch().io_seconds;
    const double io_b = b.TrainEpoch().io_seconds;
    EXPECT_GT(io_a, 0.0);
    EXPECT_NEAR(io_b, io_a, 1e-9 * io_a) << "epoch " << e;
  }
}

TEST(LinkPrediction, DiskBetaTrains) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.buffer_capacity = 4;
  config.storage.policy = "beta";
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, EpochIteratesAllTrainExamples) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  LinkPredictionTrainer mem_trainer(&g, config);
  const EpochStats mem = mem_trainer.TrainEpoch();
  EXPECT_EQ(mem.num_examples, static_cast<int64_t>(g.train_edges().size()));

  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  LinkPredictionTrainer disk_trainer(&g, config);
  const EpochStats disk = disk_trainer.TrainEpoch();
  EXPECT_EQ(disk.num_examples, static_cast<int64_t>(g.train_edges().size()));
}

TrainingConfig SmallNcConfig() {
  TrainingConfig config;
  config.fanouts = {10, 5};
  config.dims = {64, 32, 32};
  config.batch_size = 256;
  config.num_negatives = 0;
  config.pipeline.enabled = false;
  config.weight_lr = 0.05f;
  return config;
}

TEST(NodeClassification, InMemoryBeatsChance) {
  Graph g = PapersMini(0.08);
  TrainingConfig config = SmallNcConfig();
  NodeClassificationTrainer trainer(&g, config);
  EpochStats first, last;
  for (int e = 0; e < 5; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (e == 0) {
      first = s;
    }
    last = s;
  }
  EXPECT_LT(last.loss, first.loss);
  const double acc = trainer.EvaluateTestAccuracy();
  // 32 communities: chance is ~3%.
  EXPECT_GT(acc, 0.30);
}

TEST(NodeClassification, DiskCachedPolicyWorks) {
  Graph g = PapersMini(0.08);
  TrainingConfig config = SmallNcConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 16;
  config.storage.buffer_capacity = 8;
  NodeClassificationTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  // Cached regime: a single partition set per epoch, zero intra-epoch swaps.
  EXPECT_EQ(first.num_partition_sets, 1);
  for (int e = 0; e < 4; ++e) {
    trainer.TrainEpoch();
  }
  EXPECT_GT(trainer.EvaluateTestAccuracy(), 0.25);
}

TEST(NodeClassification, BaselineSamplerLearns) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  config.sampler = SamplerKind::kLayerwise;
  NodeClassificationTrainer trainer(&g, config);
  EpochStats first, last;
  for (int e = 0; e < 3; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (e == 0) {
      first = s;
    }
    last = s;
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(NodeClassification, PipelinedLearns) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  config.pipeline.enabled = true;
  NodeClassificationTrainer trainer(&g, config);
  EpochStats first, last;
  for (int e = 0; e < 3; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (e == 0) {
      first = s;
    }
    last = s;
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, DeterministicForSameSeed) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = false;
  LinkPredictionTrainer a(&g, config);
  LinkPredictionTrainer b(&g, config);
  const EpochStats sa = a.TrainEpoch();
  const EpochStats sb = b.TrainEpoch();
  EXPECT_DOUBLE_EQ(sa.loss, sb.loss);
  EXPECT_DOUBLE_EQ(a.EvaluateMrr(50, 100), b.EvaluateMrr(50, 100));
}

TEST(LinkPrediction, DiskGatTrains) {
  Graph g = Fb15k237Like(0.04);
  TrainingConfig config = SmallLpConfig();
  config.layer_type = GnnLayerType::kGat;
  config.direction = EdgeDirection::kIncoming;
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  const EpochStats second = trainer.TrainEpoch();
  EXPECT_LT(second.loss, first.loss);
}

TEST(NodeClassification, DiskFallbackRotationWhenTrainSetLarge) {
  // Force k >= c: tiny buffer relative to the training partitions.
  Graph g = PapersMini(0.08);
  TrainingConfig config = SmallNcConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 16;
  config.storage.buffer_capacity = 2;
  NodeClassificationTrainer trainer(&g, config);
  const EpochStats stats = trainer.TrainEpoch();
  // Rotation visits every partition: many sets, each training a node subset.
  EXPECT_GT(stats.num_partition_sets, 1);
  EXPECT_EQ(stats.num_examples, static_cast<int64_t>(g.train_nodes().size()));
}

TEST(NodeClassification, CachedPartitionsStayResidentAcrossEpochs) {
  // Features are read-only, so nothing is flushed at the epoch boundary: the
  // cached training partitions stay resident and epoch 2 reads only the
  // partitions its random fill swaps in, never the whole set again.
  Graph g = PapersMini(0.08);
  TrainingConfig config = SmallNcConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 16;
  config.storage.buffer_capacity = 8;
  NodeClassificationTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  const EpochStats second = trainer.TrainEpoch();
  ASSERT_EQ(first.num_partition_sets, 1);
  EXPECT_GT(first.io_read_bytes, 0u);
  EXPECT_LT(second.io_read_bytes, first.io_read_bytes);
}

TEST(LinkPrediction, DiskEpochIoDropsWithLargerBuffer) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 8;
  config.storage.buffer_capacity = 2;
  LinkPredictionTrainer small(&g, config);
  const double io_small = small.TrainEpoch().io_seconds;

  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  LinkPredictionTrainer large(&g, config);
  const double io_large = large.TrainEpoch().io_seconds;
  EXPECT_LT(io_large, io_small);
}

TEST(LinkPrediction, FilteredMrrAtLeastRaw) {
  // Filtering removes true-edge negatives, so ranks can only improve.
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  LinkPredictionTrainer trainer(&g, config);
  for (int e = 0; e < 3; ++e) {
    trainer.TrainEpoch();
  }
  const double raw = trainer.EvaluateMrr(200, 200, false, false);
  const double filtered = trainer.EvaluateMrr(200, 200, false, true);
  EXPECT_GE(filtered, raw - 1e-9);
}

TEST(LinkPrediction, TransEDecoderLearns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  config.decoder = "transe";
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 2; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPredictionDeathTest, RejectsFewerThanOneNegative) {
  Graph g = Fb15k237Like(0.03);
  for (int64_t negatives : {0, -3}) {
    TrainingConfig config = SmallLpConfig();
    config.fanouts = {};
    config.dims = {16};
    config.num_negatives = negatives;
    EXPECT_DEATH(LinkPredictionTrainer(&g, config), "num_negatives must be at least 1");
  }
}

TEST(LinkPrediction, ComplExDecoderLearns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  config.decoder = "complex";
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 2; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, GcnEncoderLearns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.layer_type = GnnLayerType::kGcn;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  const EpochStats second = trainer.TrainEpoch();
  EXPECT_LT(second.loss, first.loss);
}

TEST(NodeClassification, GatEncoderLearns) {
  Graph g = PapersMini(0.04);
  TrainingConfig config = SmallNcConfig();
  config.layer_type = GnnLayerType::kGat;
  config.fanouts = {5, 5};
  NodeClassificationTrainer trainer(&g, config);
  EpochStats first, last;
  for (int e = 0; e < 3; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (e == 0) {
      first = s;
    }
    last = s;
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, WorkerCountDoesNotChangeTrajectory) {
  // Batches are derived from per-batch seeds and consumed in order, so serial,
  // 1-worker, and N-worker pipelines must be bitwise identical.
  Graph g = Fb15k237Like(0.03);
  std::vector<double> losses;
  std::vector<double> mrrs;
  for (int workers : {0, 1, 3}) {
    TrainingConfig config = SmallLpConfig();
    config.pipeline.enabled = workers > 0;
    config.pipeline.workers = workers;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    losses.push_back(loss);
    mrrs.push_back(trainer.EvaluateMrr(50, 100));
  }
  EXPECT_DOUBLE_EQ(losses[1], losses[0]);
  EXPECT_DOUBLE_EQ(losses[2], losses[0]);
  EXPECT_DOUBLE_EQ(mrrs[1], mrrs[0]);
  EXPECT_DOUBLE_EQ(mrrs[2], mrrs[0]);
}

TEST(LinkPrediction, DiskPipelineAndPrefetchDoNotChangeTrajectory) {
  // The async path (partition prefetch + background write-back + pipeline workers)
  // must reproduce the fully synchronous run exactly, at every worker count, with
  // sampling workers and compute chunks sharing one pool (the production shape).
  Graph g = Fb15k237Like(0.05);
  ThreadPool pool(4);
  auto run = [&](int workers, bool prefetch) {
    TrainingConfig config = SmallLpConfig();
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
    config.pipeline.enabled = workers > 0;
    config.pipeline.workers = workers;
    config.pipeline.compute_pool = &pool;
    config.pipeline.pipeline_pool = &pool;
    config.storage.prefetch = prefetch;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    int64_t sets = 0;
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = trainer.TrainEpoch();
      loss += stats.loss;
      sets = stats.num_partition_sets;
    }
    EXPECT_GT(sets, 1);
    return std::make_pair(loss, trainer.EvaluateMrr(50, 100));
  };
  const auto base = run(0, false);
  const auto prefetch_only = run(0, true);
  EXPECT_DOUBLE_EQ(prefetch_only.first, base.first);
  EXPECT_DOUBLE_EQ(prefetch_only.second, base.second);
  for (int workers : {1, 3}) {
    const auto full_async = run(workers, true);
    EXPECT_DOUBLE_EQ(full_async.first, base.first) << workers << " workers";
    EXPECT_DOUBLE_EQ(full_async.second, base.second) << workers << " workers";
  }
}

TEST(Trainers, PrefetchOffOverlapsNoIoWithCompute) {
  // With prefetch off, every partition read and every write-back is waited for
  // before compute resumes, so all modeled IO is stall, bit for bit.
  auto expect_no_overlap = [](TrainerBase& trainer, const char* tag) {
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = trainer.TrainEpoch();
      EXPECT_GT(stats.io_seconds, 0.0) << tag << " epoch " << e;
      EXPECT_EQ(stats.io_stall_seconds, stats.io_seconds) << tag << " epoch " << e;
    }
  };
  Graph lp_graph = Fb15k237Like(0.05);
  TrainingConfig lp = SmallLpConfig();
  lp.pipeline.enabled = true;
  lp.storage.use_disk = true;
  lp.storage.num_physical = 8;
  lp.storage.num_logical = 4;
  lp.storage.buffer_capacity = 4;
  lp.storage.policy = "comet";
  lp.storage.prefetch = false;
  LinkPredictionTrainer lp_trainer(&lp_graph, lp);
  expect_no_overlap(lp_trainer, "lp_disk");

  // Rotation (buffer smaller than the training partitions): many sets, so the
  // feature buffer swaps partitions inside the epoch.
  Graph nc_graph = PapersMini(0.08);
  TrainingConfig nc = SmallNcConfig();
  nc.pipeline.enabled = true;
  nc.storage.use_disk = true;
  nc.storage.num_physical = 16;
  nc.storage.buffer_capacity = 2;
  nc.storage.prefetch = false;
  NodeClassificationTrainer nc_trainer(&nc_graph, nc);
  expect_no_overlap(nc_trainer, "nc_disk");
}

TEST(NodeClassification, WorkerCountDoesNotChangeTrajectory) {
  // In memory, and in the NC disk rotation regime (16 partitions through a
  // 2-partition buffer), where one epoch spans many partition sets.
  ThreadPool pool(4);
  for (const bool disk : {false, true}) {
    Graph g = PapersMini(disk ? 0.08 : 0.05);
    std::vector<double> losses;
    for (int workers : {0, 1, 2}) {
      TrainingConfig config = SmallNcConfig();
      config.pipeline.enabled = workers > 0;
      config.pipeline.workers = workers;
      config.pipeline.compute_pool = &pool;
      config.pipeline.pipeline_pool = &pool;
      if (disk) {
        config.storage.use_disk = true;
        config.storage.num_physical = 16;
        config.storage.buffer_capacity = 2;
      }
      NodeClassificationTrainer trainer(&g, config);
      double loss = 0.0;
      for (int e = 0; e < 2; ++e) {
        const EpochStats stats = trainer.TrainEpoch();
        loss += stats.loss;
        if (disk) {
          EXPECT_GT(stats.num_partition_sets, 1);
        }
      }
      losses.push_back(loss);
    }
    EXPECT_DOUBLE_EQ(losses[1], losses[0]) << (disk ? "disk" : "memory");
    EXPECT_DOUBLE_EQ(losses[2], losses[0]) << (disk ? "disk" : "memory");
  }
}

TEST(LinkPrediction, PipelinedEpochReportsStageBreakdown) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 2;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats stats = trainer.TrainEpoch();
  EXPECT_GT(stats.sample_seconds, 0.0);       // batch construction was timed
  EXPECT_GE(stats.pipeline_stall_seconds, 0.0);
  EXPECT_GT(stats.compute_seconds, 0.0);
}

TEST(LinkPrediction, ParallelComputeDoesNotChangeTrajectory) {
  // Stage-3 kernels run in fixed chunks with ordered reductions, so serial compute
  // and an 8-worker pool must produce bitwise-identical loss/MRR trajectories —
  // with and without the sampling pipeline running on top.
  Graph g = Fb15k237Like(0.05);
  ThreadPool pool(8);
  auto run = [&](bool parallel, bool pipelined) {
    TrainingConfig config = SmallLpConfig();
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    // Sampling workers and compute chunks share ONE pool (production default).
    config.pipeline.pipeline_pool = (parallel && pipelined) ? &pool : nullptr;
    config.pipeline.enabled = pipelined;
    config.pipeline.workers = 2;
    LinkPredictionTrainer trainer(&g, config);
    std::vector<double> losses;
    for (int e = 0; e < 3; ++e) {
      losses.push_back(trainer.TrainEpoch().loss);
    }
    losses.push_back(trainer.EvaluateMrr(50, 100));
    return losses;
  };
  const auto serial = run(false, false);
  const auto parallel = run(true, false);
  const auto parallel_pipelined = run(true, true);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "epoch " << i;
    EXPECT_EQ(parallel_pipelined[i], serial[i]) << "epoch " << i;
  }
}

TEST(LinkPrediction, ParallelComputeDiskTrajectoryIdentical) {
  // Disk mode adds the sharded sparse Adagrad through the partition buffer; the
  // parallel apply must still reproduce the serial run exactly.
  Graph g = Fb15k237Like(0.05);
  ThreadPool pool(8);
  auto run = [&](bool parallel) {
    TrainingConfig config = SmallLpConfig();
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
    config.pipeline.enabled = true;
    config.pipeline.workers = 2;
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    return std::make_pair(loss, trainer.EvaluateMrr(50, 100));
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  EXPECT_EQ(parallel.first, serial.first);
  EXPECT_EQ(parallel.second, serial.second);
}

TEST(NodeClassification, ParallelComputeDoesNotChangeTrajectory) {
  Graph g = PapersMini(0.05);
  ThreadPool pool(8);
  auto run = [&](bool parallel) {
    TrainingConfig config = SmallNcConfig();
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    config.pipeline.enabled = true;
    config.pipeline.workers = 2;
    NodeClassificationTrainer trainer(&g, config);
    std::vector<double> out;
    for (int e = 0; e < 2; ++e) {
      out.push_back(trainer.TrainEpoch().loss);
    }
    out.push_back(trainer.EvaluateTestAccuracy());
    return out;
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "epoch " << i;
  }
}

TEST(LinkPrediction, GatParallelComputeTrajectoryIdentical) {
  // GAT has the most intricate backward (per-chunk attention-gradient partials).
  Graph g = Fb15k237Like(0.04);
  ThreadPool pool(8);
  auto run = [&](bool parallel) {
    TrainingConfig config = SmallLpConfig();
    config.layer_type = GnnLayerType::kGat;
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    return loss;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(LinkPrediction, BaselineSamplerParallelComputeTrajectoryIdentical) {
  // The layer-wise path with an 8-worker compute pool: its blocks are lowered to
  // the encoder's plan in stage 1 (a serial counting sort), and the pooled
  // stage-3 kernels over that plan must leave the trajectory bitwise-equal to
  // the serial-compute run.
  Graph g = Fb15k237Like(0.05);
  ThreadPool pool(8);
  auto run = [&](bool parallel) {
    TrainingConfig config = SmallLpConfig();
    config.sampler = SamplerKind::kLayerwise;
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    return std::make_pair(loss, trainer.EvaluateMrr(50, 100));
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  EXPECT_DOUBLE_EQ(parallel.first, serial.first);
  EXPECT_DOUBLE_EQ(parallel.second, serial.second);
}

// ---------------------------------------------------------------------------
// Golden-trajectory regression gate. The determinism sweeps above prove that
// worker counts, prefetch, and parallel compute cannot change the batch stream;
// these tests pin the stream itself. The reference values are the bit-exact
// loss/MRR/accuracy trajectories of the checked-in implementation (fixed seed,
// IEEE-754 double, no fast-math anywhere in the build), so any future change
// that silently alters batch construction, seeding, reduction order, or
// consumption order fails tier-1 here instead of only in the determinism sweeps.
//
// To regenerate after an INTENTIONAL stream change: run with
// --gtest_filter='GoldenTrajectory.*' and copy the "actual" values each failing
// test prints (they are emitted with %.17g, enough digits to round-trip).

struct GoldenRun {
  std::vector<double> losses;  // per-epoch mean loss
  double metric = 0.0;         // MRR (LP) or test accuracy (NC)
};

void ExpectGolden(const GoldenRun& run, const std::vector<double>& want_losses,
                  double want_metric) {
  ASSERT_EQ(run.losses.size(), want_losses.size());
  for (size_t e = 0; e < want_losses.size(); ++e) {
    EXPECT_EQ(run.losses[e], want_losses[e])
        << "epoch " << e << " actual loss: "
        << ::testing::PrintToString(run.losses[e]).c_str();
  }
  EXPECT_EQ(run.metric, want_metric);
  std::printf("golden actuals: losses={");
  for (size_t e = 0; e < run.losses.size(); ++e) {
    std::printf("%s%.17g", e == 0 ? "" : ", ", run.losses[e]);
  }
  std::printf("}, metric=%.17g\n", run.metric);
}

using ConfigTweak = std::function<void(TrainingConfig*)>;

// With `resume`, the run is interrupted after epoch 1: the first trainer saves a
// checkpoint and is destroyed, a second trainer (same config) restores it and
// trains the remaining epoch. The checkpoint layer guarantees the stitched
// trajectory is bitwise-identical to the uninterrupted one, so both variants
// must reproduce the same golden constants. `tweak`, when set, edits the
// config last (the layer-wise goldens pick their sampler and model there).
GoldenRun GoldenLpRun(bool use_disk, bool resume = false,
                      const std::string& policy = "comet",
                      const ConfigTweak& tweak = nullptr) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 2;
  if (use_disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
    config.storage.policy = policy;
  }
  if (tweak) {
    tweak(&config);
  }
  GoldenRun run;
  if (!resume) {
    LinkPredictionTrainer trainer(&g, config);
    for (int e = 0; e < 2; ++e) {
      run.losses.push_back(trainer.TrainEpoch().loss);
    }
    run.metric = trainer.EvaluateMrr(50, 100);
    return run;
  }
  const std::string ckpt = TempPath("mgnn_golden_lp_ckpt");
  {
    LinkPredictionTrainer trainer(&g, config);
    run.losses.push_back(trainer.TrainEpoch().loss);
    trainer.SaveCheckpoint(ckpt);
  }
  LinkPredictionTrainer resumed(&g, config);
  resumed.ResumeFrom(ckpt);
  EXPECT_EQ(resumed.epochs_completed(), 1);
  run.losses.push_back(resumed.TrainEpoch().loss);
  run.metric = resumed.EvaluateMrr(50, 100);
  std::remove(ckpt.c_str());
  return run;
}

// `buffer_capacity` 8 is the cached regime (one partition set per epoch); 2
// forces the rotation regime (many sets, some of which train no node).
GoldenRun GoldenNcRun(bool use_disk, bool resume = false,
                      int32_t buffer_capacity = 8, const ConfigTweak& tweak = nullptr) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 2;
  if (use_disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 16;
    config.storage.buffer_capacity = buffer_capacity;
  }
  if (tweak) {
    tweak(&config);
  }
  GoldenRun run;
  if (!resume) {
    NodeClassificationTrainer trainer(&g, config);
    for (int e = 0; e < 2; ++e) {
      run.losses.push_back(trainer.TrainEpoch().loss);
    }
    run.metric = trainer.EvaluateTestAccuracy();
    return run;
  }
  const std::string ckpt = TempPath("mgnn_golden_nc_ckpt");
  {
    NodeClassificationTrainer trainer(&g, config);
    run.losses.push_back(trainer.TrainEpoch().loss);
    trainer.SaveCheckpoint(ckpt);
  }
  NodeClassificationTrainer resumed(&g, config);
  resumed.ResumeFrom(ckpt);
  EXPECT_EQ(resumed.epochs_completed(), 1);
  run.losses.push_back(resumed.TrainEpoch().loss);
  run.metric = resumed.EvaluateTestAccuracy();
  std::remove(ckpt.c_str());
  return run;
}

// MRR constants regenerated when RankOfPositive moved to the average-rank tie
// convention (the losses are untouched: the batch stream did not change).
TEST(GoldenTrajectory, LinkPredictionInMemory) {
  ExpectGolden(GoldenLpRun(false),
               {2.9370360056559246, 2.0135522921880087}, 0.48917109523447394);
}

TEST(GoldenTrajectory, LinkPredictionDisk) {
  ExpectGolden(GoldenLpRun(true),
               {3.0713760495185851, 2.3424148057636462}, 0.4393313931734697);
}

TEST(GoldenTrajectory, NodeClassificationInMemory) {
  ExpectGolden(GoldenNcRun(false),
               {8.0975475311279297, 3.2635064125061035}, 0.34666666666666668);
}

TEST(GoldenTrajectory, NodeClassificationDisk) {
  ExpectGolden(GoldenNcRun(true),
               {8.3907327651977539, 3.291311502456665}, 0.35333333333333333);
}

// Checkpoint-resume must land on the SAME constants as the uninterrupted runs
// above: an epoch-k snapshot restores optimizer/embedding/RNG state exactly, so
// the continuation is bitwise-identical (the strongest checkpoint correctness
// guarantee the determinism contract makes possible).

TEST(GoldenTrajectory, LinkPredictionInMemoryResume) {
  ExpectGolden(GoldenLpRun(false, /*resume=*/true),
               {2.9370360056559246, 2.0135522921880087}, 0.48917109523447394);
}

TEST(GoldenTrajectory, LinkPredictionDiskResume) {
  ExpectGolden(GoldenLpRun(true, /*resume=*/true),
               {3.0713760495185851, 2.3424148057636462}, 0.4393313931734697);
}

TEST(GoldenTrajectory, NodeClassificationInMemoryResume) {
  ExpectGolden(GoldenNcRun(false, /*resume=*/true),
               {8.0975475311279297, 3.2635064125061035}, 0.34666666666666668);
}

TEST(GoldenTrajectory, NodeClassificationDiskResume) {
  ExpectGolden(GoldenNcRun(true, /*resume=*/true),
               {8.3907327651977539, 3.291311502456665}, 0.35333333333333333);
}

// Paths the four goldens above do not reach: the BETA ordering policy, and the
// node-classification rotation regime, whose epoch runs many partition sets
// including ones that train no node (no run-seed draw for those).

TEST(GoldenTrajectory, LinkPredictionDiskBeta) {
  ExpectGolden(GoldenLpRun(true, /*resume=*/false, "beta"),
               {3.0368956923484802, 2.2918903827667236}, 0.40479505957199163);
}

TEST(GoldenTrajectory, NodeClassificationDiskRotation) {
  ExpectGolden(GoldenNcRun(true, /*resume=*/false, /*buffer_capacity=*/2),
               {9.0238022804260254, 2.8858122825622559}, 0.42666666666666669);
}

TEST(GoldenTrajectory, NodeClassificationDiskRotationResume) {
  ExpectGolden(GoldenNcRun(true, /*resume=*/true, /*buffer_capacity=*/2),
               {9.0238022804260254, 2.8858122825622559}, 0.42666666666666669);
}

// The baseline layer-wise sampler (in-memory only): a two-layer GraphSage link
// predictor, and Table 5's GAT node classifier. These pin the block-to-segment
// lowering and the per-layer resampling streams that the DENSE goldens never run.

TEST(GoldenTrajectory, LinkPredictionLayerwise) {
  ExpectGolden(GoldenLpRun(false, /*resume=*/false, "comet",
                           [](TrainingConfig* c) {
                             c->sampler = SamplerKind::kLayerwise;
                             c->fanouts = {5, 3};
                             c->dims = {16, 16, 16};
                           }),
               {2.9292632420857747, 2.2919491132100425}, 0.45826083320981326);
}

TEST(GoldenTrajectory, NodeClassificationLayerwiseGat) {
  ExpectGolden(GoldenNcRun(false, /*resume=*/false, /*buffer_capacity=*/8,
                           [](TrainingConfig* c) {
                             c->sampler = SamplerKind::kLayerwise;
                             c->layer_type = GnnLayerType::kGat;
                           }),
               {12.552272796630859, 7.0966701507568359}, 0.16);
}

TEST(Metrics, RankOfPositive) {
  EXPECT_EQ(RankOfPositive(1.0f, {0.5f, 0.2f}), 1);
  EXPECT_EQ(RankOfPositive(0.3f, {0.5f, 0.2f}), 2);
  EXPECT_EQ(RankOfPositive(0.1f, {0.5f, 0.2f}), 3);
  // Average-rank tie convention: a positive tied with k negatives ranks
  // 1 + (k + 1) / 2 (half-up), not the truncated k / 2 that gave a positive
  // tied with one negative full credit.
  EXPECT_EQ(RankOfPositive(0.5f, {0.5f, 0.2f}), 2);   // one tie: no full credit
  EXPECT_EQ(RankOfPositive(0.5f, {0.5f, 0.5f}), 2);   // two ties split around it
  EXPECT_EQ(RankOfPositive(0.5f, {0.5f, 0.5f, 0.5f}), 3);
  EXPECT_EQ(RankOfPositive(0.5f, {0.9f, 0.5f}), 3);   // greater + tie combine
}

TEST(Metrics, MrrFromRanks) {
  EXPECT_DOUBLE_EQ(MrrFromRanks({1, 2, 4}), (1.0 + 0.5 + 0.25) / 3.0);
  EXPECT_DOUBLE_EQ(MrrFromRanks({}), 0.0);
}

TEST(Metrics, CostModel) {
  CostModel cost;
  EXPECT_NEAR(cost.CostFor("p3.2xlarge", 3600.0), 3.06, 1e-9);
  EXPECT_NEAR(cost.CostFor("p3.16xlarge", 1800.0), 12.24, 1e-9);
}

// The per-epoch determinism hash (ordered FNV-1a fold of batch-loss bits,
// docs/DETERMINISM.md) must be bit-equal across serial, 8-worker, and
// save/resume runs of the same config — one u64 per epoch subsumes the
// loss/MRR trajectory comparisons above — and no run may trip an RV monitor.

TEST(DeterminismHash, LinkPredictionSerialVs8WorkerVsResume) {
  Graph g = Fb15k237Like(0.05);
  uint64_t serial_hash[2] = {0, 0};
  {
    TrainingConfig config = SmallLpConfig();
    LinkPredictionTrainer serial(&g, config);
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = serial.TrainEpoch();
      serial_hash[e] = stats.determinism_hash;
      EXPECT_EQ(stats.rv_violations, 0u);
    }
  }
  EXPECT_NE(serial_hash[0], 0u);
  EXPECT_NE(serial_hash[0], serial_hash[1]);  // the model moved between epochs

  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 8;
  const std::string ckpt = TempPath("hash_lp_resume");
  {
    LinkPredictionTrainer parallel(&g, config);
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = parallel.TrainEpoch();
      EXPECT_EQ(stats.determinism_hash, serial_hash[e]);
      EXPECT_EQ(stats.rv_violations, 0u);
      if (e == 0) {
        parallel.SaveCheckpoint(ckpt);
      }
    }
    EXPECT_EQ(parallel.last_determinism_hash(), serial_hash[1]);
  }
  {
    LinkPredictionTrainer resumed(&g, config);
    EXPECT_EQ(resumed.last_determinism_hash(), 0u);
    resumed.ResumeFrom(ckpt);
    // The checkpoint manifest carried epoch 1's hash.
    EXPECT_EQ(resumed.last_determinism_hash(), serial_hash[0]);
    const EpochStats stats = resumed.TrainEpoch();
    EXPECT_EQ(stats.determinism_hash, serial_hash[1]);
    EXPECT_EQ(stats.rv_violations, 0u);
  }
  std::remove(ckpt.c_str());
}

TEST(DeterminismHash, LinkPredictionDiskMatchesDiskSerial) {
  // Disk mode partitions the epoch differently from in-memory (its own batch
  // stream), but within the mode the hash must be invariant to pipelining,
  // prefetch, and resume.
  Graph g = Fb15k237Like(0.05);
  auto disk_config = [&](bool pipelined) {
    TrainingConfig config = SmallLpConfig();
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
    config.pipeline.enabled = pipelined;
    config.pipeline.workers = 8;
    config.storage.prefetch = pipelined;
    return config;
  };
  uint64_t serial_hash[2] = {0, 0};
  {
    LinkPredictionTrainer serial(&g, disk_config(false));
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = serial.TrainEpoch();
      serial_hash[e] = stats.determinism_hash;
      EXPECT_EQ(stats.rv_violations, 0u);
    }
  }
  {
    LinkPredictionTrainer parallel(&g, disk_config(true));
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = parallel.TrainEpoch();
      EXPECT_EQ(stats.determinism_hash, serial_hash[e]);
      EXPECT_EQ(stats.rv_violations, 0u);
    }
  }
}

TEST(DeterminismHash, NodeClassificationSerialVs8WorkerVsResume) {
  Graph g = PapersMini(0.08);
  uint64_t serial_hash[2] = {0, 0};
  {
    TrainingConfig config = SmallNcConfig();
    NodeClassificationTrainer serial(&g, config);
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = serial.TrainEpoch();
      serial_hash[e] = stats.determinism_hash;
      EXPECT_EQ(stats.rv_violations, 0u);
    }
  }
  EXPECT_NE(serial_hash[0], 0u);

  TrainingConfig config = SmallNcConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 8;
  const std::string ckpt = TempPath("hash_nc_resume");
  {
    NodeClassificationTrainer parallel(&g, config);
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = parallel.TrainEpoch();
      EXPECT_EQ(stats.determinism_hash, serial_hash[e]);
      EXPECT_EQ(stats.rv_violations, 0u);
      if (e == 0) {
        parallel.SaveCheckpoint(ckpt);
      }
    }
  }
  {
    NodeClassificationTrainer resumed(&g, config);
    resumed.ResumeFrom(ckpt);
    EXPECT_EQ(resumed.last_determinism_hash(), serial_hash[0]);
    const EpochStats stats = resumed.TrainEpoch();
    EXPECT_EQ(stats.determinism_hash, serial_hash[1]);
    EXPECT_EQ(stats.rv_violations, 0u);
  }
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace mariusgnn
