#include "src/core/node_classification_trainer.h"

#include <algorithm>

#include "src/core/checkpoint.h"
#include "src/pipeline/training_pipeline.h"
#include "src/policy/policy.h"
#include "src/tensor/ops.h"
#include "src/util/binary_io.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace mariusgnn {

struct NodeClassificationTrainer::PreparedBatch {
  std::vector<int64_t> nodes;  // batch target nodes
  std::vector<int64_t> labels;
  DenseBatch dense;
  std::vector<int64_t> dense_nodes;
  LayerwiseSample layerwise;
};

NodeClassificationTrainer::NodeClassificationTrainer(const Graph* graph,
                                                     TrainingConfig config)
    : TrainerBase(graph, std::move(config), TaskKind::kNodeClassification) {
  if (!config_.storage.use_disk) {
    full_index_ = std::make_unique<NeighborIndex>(*graph_);
  } else {
    MG_CHECK(config_.storage.num_physical >= 2 && config_.storage.buffer_capacity >= 2);
    MG_CHECK_MSG(config_.sampler == SamplerKind::kDense,
                 "baseline sampler supports in-memory training only");
    partitioning_ = std::make_unique<Partitioning>(
        *graph_, config_.storage.num_physical, PartitionAssignment::kTrainingNodesFirst, rng_);
    const std::string path = config_.storage.dir.empty()
                                 ? TempPath("mgnn_nc_features")
                                 : config_.storage.dir + "/features.bin";
    buffer_ = std::make_unique<PartitionBuffer>(
        partitioning_.get(), graph_->features().cols(), config_.storage.buffer_capacity, path,
        config_.storage.disk_model, /*learnable=*/false, &graph_->features(),
        config_.MakePartitionIoOptions());
    buffer_store_ = std::make_unique<BufferedEmbeddingStore>(buffer_.get(),
                                                             /*trainable=*/false);
    buffer_store_->set_compute(&compute_);
  }
}

NodeClassificationTrainer::~NodeClassificationTrainer() = default;

Tensor NodeClassificationTrainer::GatherFeatures(const std::vector<int64_t>& nodes,
                                                 bool from_graph) {
  if (from_graph || !use_buffer_features_) {
    return IndexSelect(graph_->features(), nodes, &compute_);
  }
  Tensor out;
  buffer_store_->Gather(nodes, &out);
  return out;
}

// Batch construction (pipeline stage 1). Runs on worker threads: everything is
// derived from `batch_seed` and read-only state (see training_pipeline.h).
NodeClassificationTrainer::PreparedBatch NodeClassificationTrainer::PrepareBatch(
    const std::vector<int64_t>& nodes, uint64_t batch_seed) const {
  PreparedBatch batch;
  batch.nodes = nodes;
  batch.labels.reserve(nodes.size());
  for (int64_t v : nodes) {
    batch.labels.push_back(graph_->labels()[static_cast<size_t>(v)]);
  }
  if (model_.dense_sampler != nullptr) {
    batch.dense = model_.dense_sampler->SampleSeeded(nodes, MixSeed(batch_seed, 2));
    batch.dense.FinalizeForDevice();
    batch.dense_nodes = batch.dense.node_ids;
  } else {
    batch.layerwise = model_.layerwise_sampler->SampleSeeded(nodes, MixSeed(batch_seed, 3));
  }
  return batch;
}

void NodeClassificationTrainer::ConsumeBatch(PreparedBatch& batch,
                                             EpochStats* stats) {
  Tensor reprs;
  if (model_.encoder != nullptr) {
    Tensor h0 = GatherFeatures(batch.dense_nodes, /*from_graph=*/false);
    reprs = model_.encoder->Forward(batch.dense, h0);
  } else {
    Tensor h0 = GatherFeatures(batch.layerwise.input_nodes(), /*from_graph=*/false);
    reprs = model_.block_encoder->Forward(batch.layerwise, h0);
  }
  Tensor logits = model_.head->Forward(reprs);
  Tensor dlogits;
  const float loss = SoftmaxCrossEntropy(logits, batch.labels, &dlogits, &compute_);
  Tensor dreprs = model_.head->Backward(dlogits);
  if (model_.encoder != nullptr) {
    model_.encoder->Backward(dreprs);
  } else {
    model_.block_encoder->Backward(dreprs);
  }
  // Features are fixed inputs: no sparse stream, only the dense weights go
  // through the gradient-exchange seam.
  ExchangeApply(/*has_batch=*/true, loss, nullptr, nullptr, nullptr, 0.0f,
                stats);
}

// One PipelineSession spans the whole epoch (see the link-prediction trainer):
// the producer maps the session's global index onto the current set's local
// batch number, then through ReplicaBatchPartition onto the set's GLOBAL batch
// number g — rank r builds exactly the batches with g % world == r, seeded by
// ReplicaBatchPartition::BatchSeed(per-set run_seed, g). For world == 1 the
// stream is bit-identical to the single-replica pipelines this replaces.
std::unique_ptr<PipelineSession> NodeClassificationTrainer::MakeSession(
    EpochStats* stats) {
  return std::make_unique<PipelineSession>(
      config_.MakePipelineSessionOptions(controller_.workers()),
      [this](int64_t index) -> std::shared_ptr<void> {
        const int64_t g = replica_.GlobalIndex(index - run_batch_base_);
        const int64_t begin = g * config_.batch_size;
        const int64_t end = begin + config_.batch_size < run_total_
                                ? begin + config_.batch_size
                                : run_total_;
        const std::vector<int64_t> ids(run_nodes_->begin() + begin,
                                       run_nodes_->begin() + end);
        return std::make_shared<PreparedBatch>(PrepareBatch(
            ids, ReplicaBatchPartition::BatchSeed(run_seed_, g)));
      },
      [this, stats](void* item, int64_t) {
        // In-order consumer; ConsumeBatch routes the step through the exchange
        // seam, which folds every replica's loss into the determinism hash.
        ConsumeBatch(*static_cast<PreparedBatch*>(item), stats);
      });
}

PipelineStats NodeClassificationTrainer::RunBatches(
    const std::vector<int64_t>& nodes, const NeighborIndex& index,
    PipelineSession* session, EpochStats* stats) {
  const int64_t total = static_cast<int64_t>(nodes.size());
  if (total == 0) {
    return PipelineStats();
  }
  // Point the samplers at this run's index once, up front; workers then only call
  // const, seed-driven sampling methods. Safe between segments: workers never
  // claim an index beyond the announced limit.
  if (model_.dense_sampler != nullptr) {
    model_.dense_sampler->set_index(&index);
  }
  if (model_.layerwise_sampler != nullptr) {
    model_.layerwise_sampler->set_index(&index);
  }
  run_nodes_ = &nodes;
  run_seed_ = rng_.Next();
  run_batch_base_ = session->announced();
  run_total_ = total;
  const int64_t num_batches =
      (total + config_.batch_size - 1) / config_.batch_size;
  // Rank r consumes only the global batches with g % world == r (see the
  // link-prediction trainer); short ranks run trailing batchless exchanges so
  // every rank performs the same exchange sequence.
  const int64_t local_batches = replica_.LocalCount(num_batches);
  const int64_t steps = replica_.StepCount(num_batches);
  const PipelineStats ps = session->RunSegment(local_batches);
  for (int64_t s = local_batches; s < steps; ++s) {
    ExchangeApply(/*has_batch=*/false, 0.0f, nullptr, nullptr, nullptr, 0.0f,
                  stats);
  }
  int64_t local_examples = local_batches * config_.batch_size;
  if (local_batches > 0 &&
      replica_.GlobalIndex(local_batches - 1) == num_batches - 1) {
    local_examples += total - (num_batches - 1) * config_.batch_size -
                      config_.batch_size;
  }
  stats->AccumulatePipeline(ps, local_examples);
  return ps;
}

void NodeClassificationTrainer::ReportSetBoundary(
    PipelineSession* session, const PipelineStats& ps,
    const ComputeStats& compute_before, double io_stall_delta,
    double window_seconds, bool more_sets, EpochStats* stats) {
  controller_.ReportSetBoundary(ps, compute_stats_, compute_before, io_stall_delta,
                                window_seconds, more_sets, session,
                                &stats->workers_per_set, &stats->resize_count);
}

EpochStats NodeClassificationTrainer::TrainEpochImpl() {
  EpochStats stats;
  compute_stats_.Reset();
  std::vector<int64_t> train = graph_->train_nodes();
  rng_.Shuffle(train);
  stats.pipeline_workers = controller_.workers();
  std::unique_ptr<PipelineSession> session = MakeSession(&stats);

  if (!config_.storage.use_disk) {
    WallTimer timer;
    const ComputeStats compute_before = compute_stats_;
    const PipelineStats ps = RunBatches(train, *full_index_, session.get(), &stats);
    stats.compute_seconds = timer.Seconds();
    stats.wall_seconds = stats.compute_seconds;
    ReportSetBoundary(session.get(), ps, compute_before, /*io_stall_delta=*/0.0,
                      timer.Seconds(), /*more_sets=*/false, &stats);
    stats.num_partition_sets = 1;
  } else {
    const auto sets =
        caching_policy_.GenerateEpoch(*partitioning_, config_.storage.buffer_capacity, rng_);
    stats.num_partition_sets = static_cast<int64_t>(sets.size());
    double prev_compute = 0.0;
    // A partition's training nodes are trained the first time it becomes resident
    // (in the cached regime all training partitions are resident in the single set).
    std::vector<char> partition_done(static_cast<size_t>(config_.storage.num_physical), 0);
    for (size_t i = 0; i < sets.size(); ++i) {
      const ComputeStats compute_before = compute_stats_;
      const double io_stall_before = stats.io_stall_seconds;
      WallTimer window_timer;
      const double sync_io = buffer_->SetResident(sets[i]);
      stats.AccumulateSwapIo(sync_io, buffer_->ConsumeBackgroundIoSeconds(),
                             prev_compute);

      if (config_.storage.prefetch && i + 1 < sets.size()) {
        buffer_->Prefetch(PrefetchDelta(sets[i], sets[i + 1]));
      }

      WallTimer set_timer;
      std::vector<Edge> resident_edges;
      std::vector<char> resident_fresh(static_cast<size_t>(config_.storage.num_physical), 0);
      for (int32_t a : sets[i]) {
        if (partition_done[static_cast<size_t>(a)] == 0) {
          resident_fresh[static_cast<size_t>(a)] = 1;
          partition_done[static_cast<size_t>(a)] = 1;
        }
        for (int32_t b : sets[i]) {
          for (int64_t e : partitioning_->Bucket(a, b)) {
            resident_edges.push_back(graph_->edge(e));
          }
        }
      }
      NeighborIndex index(graph_->num_nodes(), resident_edges);

      std::vector<int64_t> subset;
      for (int64_t v : train) {
        if (resident_fresh[static_cast<size_t>(partitioning_->PartitionOf(v))] != 0) {
          subset.push_back(v);
        }
      }
      PipelineStats ps;
      if (!subset.empty()) {
        use_buffer_features_ = true;
        ps = RunBatches(subset, index, session.get(), &stats);
        use_buffer_features_ = false;
      }
      prev_compute = set_timer.Seconds();
      stats.compute_seconds += prev_compute;
      ReportSetBoundary(session.get(), ps, compute_before,
                        stats.io_stall_seconds - io_stall_before,
                        window_timer.Seconds(), i + 1 < sets.size(), &stats);
    }
    const IoEngineStats engine_io = buffer_->ConsumeIoStats();
    stats.io_read_bytes = engine_io.read_bytes;
    stats.io_write_bytes = engine_io.write_bytes;
    stats.io_queue_depth_mean = engine_io.queue_depth_mean;
    stats.io_inflight_peak = engine_io.inflight_peak;
    stats.wall_seconds = stats.compute_seconds + stats.io_stall_seconds;
  }
  stats.compute_parallel_efficiency = compute_stats_.ParallelEfficiency();
  controller_.ObserveEpoch(stats.compute_parallel_efficiency);
  if (stats.num_global_batches > 0) {
    stats.loss /= static_cast<double>(stats.num_global_batches);
  }
  return stats;
}

// Evaluation-time samples are seeded from the run seed (see the link-prediction
// trainer): metrics are a pure function of model state, identical across
// repeated calls and across a checkpoint resume.
Tensor NodeClassificationTrainer::InferLogits(const std::vector<int64_t>& nodes,
                                              const NeighborIndex& index) {
  const uint64_t eval_seed = MixSeed(config_.seed, 0x4556414CULL);  // "EVAL"
  return model_.InferLogits(
      nodes, eval_seed, index,
      [&](const std::vector<int64_t>& ids) { return GatherFeatures(ids, /*from_graph=*/true); },
      &compute_);
}

double NodeClassificationTrainer::EvaluateAccuracy(const std::vector<int64_t>& nodes) {
  if (nodes.empty()) {
    return 0.0;
  }
  if (full_index_ == nullptr) {
    full_index_ = std::make_unique<NeighborIndex>(*graph_);
  }
  int64_t correct = 0;
  const int64_t chunk = 512;
  for (size_t begin = 0; begin < nodes.size(); begin += chunk) {
    const size_t end = std::min(nodes.size(), begin + chunk);
    std::vector<int64_t> batch(nodes.begin() + begin, nodes.begin() + end);
    Tensor logits = InferLogits(batch, *full_index_);
    for (int64_t r = 0; r < logits.rows(); ++r) {
      int64_t best = 0;
      for (int64_t c = 1; c < logits.cols(); ++c) {
        if (logits(r, c) > logits(r, best)) {
          best = c;
        }
      }
      if (best == graph_->labels()[static_cast<size_t>(batch[static_cast<size_t>(r)])]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

}  // namespace mariusgnn
