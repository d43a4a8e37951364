#include "src/core/link_prediction_trainer.h"

#include <algorithm>
#include <cmath>

#include "src/core/checkpoint.h"
#include "src/eval/metrics.h"
#include "src/policy/beta.h"
#include "src/policy/comet.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/node_row_map.h"

namespace mariusgnn {

struct LinkPredictionTrainer::PreparedBatch {
  std::vector<int64_t> targets;  // unique nodes: srcs, dsts, then negatives
  std::vector<int64_t> src_rows;
  std::vector<int64_t> dst_rows;
  std::vector<int64_t> neg_rows;
  std::vector<int32_t> rels;
  GnnPlan plan;  // empty without a GNN
};

LinkPredictionTrainer::LinkPredictionTrainer(const Graph* graph, TrainingConfig config)
    : TrainerBase(graph, std::move(config), TaskKind::kLinkPrediction) {
  // Every positive is ranked against the shared negatives, and the count sizes the
  // sampler's output vector directly.
  MG_CHECK_MSG(config_.num_negatives >= 1, "num_negatives must be at least 1");
  const int64_t emb_dim = config_.dims.front();

  // Training-edge membership (disk policies iterate all buckets; only train edges
  // become examples).
  is_train_edge_.assign(static_cast<size_t>(graph_->num_edges()), 0);
  if (graph_->train_edges().empty()) {
    std::fill(is_train_edge_.begin(), is_train_edge_.end(), 1);
  } else {
    for (int64_t e : graph_->train_edges()) {
      is_train_edge_[static_cast<size_t>(e)] = 1;
    }
  }

  const float init_scale = 1.0f / std::sqrt(static_cast<float>(emb_dim));
  if (!config_.storage.use_disk) {
    mem_store_ = std::make_unique<InMemoryEmbeddingStore>(graph_->num_nodes(), emb_dim,
                                                          init_scale, rng_);
    mem_store_->set_compute(&compute_);
    embeddings_ = mem_store_.get();
  } else {
    partitioning_ = std::make_unique<Partitioning>(*graph_, config_.storage.num_physical,
                                                   PartitionAssignment::kRandom, rng_);
    Tensor init = Tensor::Uniform(graph_->num_nodes(), emb_dim, init_scale, rng_);
    MakePartitionBuffer("embeddings.bin", emb_dim, /*learnable=*/true, &init);
    disk_store_ = std::make_unique<BufferedEmbeddingStore>(buffer_.get(), true);
    disk_store_->set_compute(&compute_);
    embeddings_ = disk_store_.get();
    if (config_.storage.policy == "beta") {
      policy_ = std::make_unique<BetaPolicy>();
    } else {
      MG_CHECK_MSG(config_.storage.policy == "comet", "policy must be comet or beta");
      policy_ = std::make_unique<CometPolicy>(config_.storage.num_logical,
                                              config_.storage.comet_randomize_grouping,
                                              config_.storage.comet_deferred_assignment);
    }
  }
}

LinkPredictionTrainer::~LinkPredictionTrainer() = default;

EpochPlan LinkPredictionTrainer::PlanEpoch() {
  if (buffer_ == nullptr) {
    return MemoryPlan();
  }
  return policy_->GenerateEpoch(*partitioning_, config_.storage.buffer_capacity, rng_);
}

std::vector<int64_t> LinkPredictionTrainer::SetExamples(const EpochPlan& plan, int64_t i) {
  std::vector<int64_t> edge_ids;
  if (buffer_ == nullptr) {
    edge_ids = graph_->train_edges();
    if (edge_ids.empty()) {
      edge_ids.resize(static_cast<size_t>(graph_->num_edges()));
      for (int64_t e = 0; e < graph_->num_edges(); ++e) {
        edge_ids[static_cast<size_t>(e)] = e;
      }
    }
  } else {
    // X_i: the training edges of the buckets the plan assigns to this set.
    for (const BucketId& bucket : plan.buckets_per_set[static_cast<size_t>(i)]) {
      for (int64_t e : partitioning_->Bucket(bucket.first, bucket.second)) {
        if (is_train_edge_[static_cast<size_t>(e)] != 0) {
          edge_ids.push_back(e);
        }
      }
    }
  }
  rng_.Shuffle(edge_ids);
  if (buffer_ == nullptr) {
    negatives_.emplace(graph_->num_nodes(), rng_.Next());
  } else {
    negatives_.emplace(buffer_->ResidentNodes(), rng_.Next());
  }
  return edge_ids;
}

// Batch construction (pipeline stage 1). Runs on worker threads: everything is
// derived from `batch_seed` and read-only state, so the batch is identical for any
// worker count (the samplers read the set's resident index, which RunEpoch builds
// beforehand).
std::shared_ptr<void> LinkPredictionTrainer::PrepareBatch(
    const std::vector<int64_t>& edge_ids, uint64_t batch_seed) const {
  auto prepared = std::make_shared<PreparedBatch>();
  PreparedBatch& batch = *prepared;
  NodeRowMap row_of(std::min(static_cast<int64_t>(edge_ids.size()) * 2 + config_.num_negatives,
                             graph_->num_nodes()));
  auto row = [&](int64_t node) {
    const auto [r, inserted] =
        row_of.Emplace(node, static_cast<int64_t>(batch.targets.size()));
    if (inserted) {
      batch.targets.push_back(node);
    }
    return r;
  };

  batch.src_rows.reserve(edge_ids.size());
  batch.dst_rows.reserve(edge_ids.size());
  batch.rels.reserve(edge_ids.size());
  for (int64_t e : edge_ids) {
    const Edge& edge = graph_->edge(e);
    batch.src_rows.push_back(row(edge.src));
    batch.dst_rows.push_back(row(edge.dst));
    batch.rels.push_back(edge.rel);
  }
  for (int64_t n :
       negatives_->SampleSeeded(config_.num_negatives, MixSeed(batch_seed, 1))) {
    batch.neg_rows.push_back(row(n));
  }

  if (model_.has_gnn()) {
    batch.plan = model_.SamplePlan(batch.targets, model_.TrainingSampleSeed(batch_seed),
                                   *sample_index_);
  }
  return prepared;
}

void LinkPredictionTrainer::ConsumeBatch(void* item, EpochStats* stats) {
  PreparedBatch& batch = *static_cast<PreparedBatch*>(item);
  const bool gnn = model_.has_gnn();
  // The touched sparse rows: the plan's input nodes, or the targets themselves.
  const std::vector<int64_t>& rows = gnn ? batch.plan.input_nodes : batch.targets;
  Tensor reprs;
  embeddings_->Gather(rows, &reprs);
  if (gnn) {
    reprs = model_.encoder->Forward(batch.plan, std::move(reprs));
  }

  Tensor d_reprs(reprs.rows(), reprs.cols());
  const float loss = model_.decoder->LossAndGrad(reprs, batch.src_rows, batch.dst_rows,
                                                 batch.rels, batch.neg_rows, &d_reprs);

  // Every update — sparse and dense — is applied through the gradient-exchange
  // seam.
  const Tensor sparse_grads =
      gnn ? model_.encoder->Backward(std::move(d_reprs)) : std::move(d_reprs);
  ExchangeApply(/*has_batch=*/true, loss, &rows, &sparse_grads, stats);
}

CheckpointSectionSpec LinkPredictionTrainer::MakeBufferSectionSpec(
    const char* name, bool state_stream) {
  const Partitioning* partitioning = partitioning_.get();
  int64_t num_nodes = 0;
  int64_t max_rows = 0;
  for (int32_t part = 0; part < partitioning->num_partitions(); ++part) {
    num_nodes += partitioning->PartitionSize(part);
    max_rows = std::max(max_rows, partitioning->PartitionSize(part));
  }
  const int64_t dim = buffer_->dim();
  CheckpointSectionSpec spec;
  spec.name = name;
  spec.rows = num_nodes;
  spec.cols = dim;
  PartitionBuffer* buffer = buffer_.get();
  spec.write = [partitioning, buffer, dim, max_rows,
                state_stream](CheckpointSectionWriter* w) {
    // One partition of one stream is the only staging this producer ever holds
    // — the streaming writer's whole point. Rows scatter to their node-indexed
    // positions because partitions hold a random permutation of node ids.
    std::vector<float> scratch(static_cast<size_t>(max_rows) * dim);
    w->NoteStagingBytes(scratch.size() * sizeof(float));
    for (int32_t part = 0; part < partitioning->num_partitions(); ++part) {
      buffer->ExportPartition(part, state_stream ? nullptr : scratch.data(),
                              state_stream ? scratch.data() : nullptr);
      const auto& nodes = partitioning->NodesIn(part);
      for (size_t k = 0; k < nodes.size(); ++k) {
        w->WriteRows(nodes[k], 1, &scratch[k * static_cast<size_t>(dim)]);
      }
    }
  };
  return spec;
}

void LinkPredictionTrainer::AppendCheckpointSections(CheckpointSaveRequest* request) {
  if (config_.storage.use_disk) {
    // Disk mode: streamed partition-by-partition. Resident partitions flush
    // through from buffer memory; evicted ones are read back via the engine —
    // the full table is never materialised (peak = one partition's scratch).
    request->sections.push_back(MakeBufferSectionSpec("embeddings.values", false));
    request->sections.push_back(MakeBufferSectionSpec("embeddings.state", true));
  } else {
    request->sections.push_back(
        TensorSectionSpec("embeddings.values", mem_store_->values()));
    request->sections.push_back(
        TensorSectionSpec("embeddings.state", mem_store_->state()));
  }
}

void LinkPredictionTrainer::RestoreCheckpointSections(CheckpointReader& reader) {
  const CheckpointSectionInfo* values = reader.FindSection("embeddings.values");
  const CheckpointSectionInfo* state = reader.FindSection("embeddings.state");
  MG_CHECK_MSG(values != nullptr && state != nullptr,
               "checkpoint is missing the embedding sections");
  std::string error;
  if (config_.storage.use_disk) {
    const Partitioning* partitioning = partitioning_.get();
    int64_t num_nodes = 0;
    int64_t max_rows = 0;
    for (int32_t part = 0; part < partitioning->num_partitions(); ++part) {
      num_nodes += partitioning->PartitionSize(part);
      max_rows = std::max(max_rows, partitioning->PartitionSize(part));
    }
    const int64_t dim = buffer_->dim();
    MG_CHECK_MSG(values->rows == num_nodes && values->cols == dim &&
                     state->rows == num_nodes && state->cols == dim,
                 "checkpoint embedding shape mismatch");
    // Inverse of the streaming save: gather each partition's rows from their
    // node-indexed section positions into one-partition scratch buffers, then
    // overwrite that partition's on-disk extent. Peak memory stays at one
    // partition of each stream.
    buffer_->BeginImport();
    std::vector<float> vscratch(static_cast<size_t>(max_rows) * dim);
    std::vector<float> sscratch(vscratch.size());
    for (int32_t part = 0; part < partitioning->num_partitions(); ++part) {
      const auto& nodes = partitioning->NodesIn(part);
      for (size_t k = 0; k < nodes.size(); ++k) {
        MG_CHECK_MSG(reader.ReadRows(*values, nodes[k], 1,
                                     &vscratch[k * static_cast<size_t>(dim)], &error),
                     error.c_str());
        MG_CHECK_MSG(reader.ReadRows(*state, nodes[k], 1,
                                     &sscratch[k * static_cast<size_t>(dim)], &error),
                     error.c_str());
      }
      buffer_->ImportPartition(part, vscratch.data(), sscratch.data());
    }
  } else {
    MG_CHECK_MSG(values->rows == mem_store_->values().rows() &&
                     values->cols == mem_store_->values().cols(),
                 "checkpoint embedding shape mismatch");
    std::vector<float> value_data(static_cast<size_t>(values->rows) * values->cols);
    MG_CHECK_MSG(reader.ReadSection(*values, value_data.data(), &error),
                 error.c_str());
    std::vector<float> state_data(static_cast<size_t>(state->rows) * state->cols);
    MG_CHECK_MSG(reader.ReadSection(*state, state_data.data(), &error),
                 error.c_str());
    mem_store_->Restore(Tensor(values->rows, values->cols, std::move(value_data)),
                        Tensor(state->rows, state->cols, std::move(state_data)));
  }
}

// Evaluation-time neighborhood samples are seeded from the run seed (not a
// training batch's seed), so metrics are a pure function of model state:
// repeated evaluations of the same model agree bit-for-bit, and a
// checkpoint-resumed trainer evaluates identically to the one that saved it.
// A decoder-only model's representations are its base rows, so it never builds
// the full-graph index.
Tensor LinkPredictionTrainer::InferReprs(const std::vector<int64_t>& nodes,
                                         const Tensor& values) {
  auto gather = [&](const std::vector<int64_t>& ids) {
    return IndexSelect(values, ids, &compute_);
  };
  if (!model_.has_gnn()) {
    return gather(nodes);
  }
  const uint64_t eval_seed = MixSeed(config_.seed, 0x4556414CULL);  // "EVAL"
  return model_.InferReprs(nodes, eval_seed, FullIndex(), gather, &compute_);
}

namespace {

// Exact packed key for (src, rel, dst); valid for graphs below 2^20 nodes and 2^24
// relations (checked by the caller).
uint64_t EdgeKey(int64_t src, int32_t rel, int64_t dst) {
  return (static_cast<uint64_t>(src) << 44) |
         (static_cast<uint64_t>(static_cast<uint32_t>(rel)) << 20) |
         static_cast<uint64_t>(dst);
}

}  // namespace

double LinkPredictionTrainer::EvaluateMrr(int64_t num_negatives, int64_t max_edges,
                                          bool use_valid, bool filtered) {
  if (filtered && true_edges_.empty()) {
    MG_CHECK_MSG(graph_->num_nodes() < (1LL << 20) && graph_->num_relations() < (1 << 24),
                 "filtered MRR requires < 2^20 nodes and < 2^24 relations");
    true_edges_.reserve(static_cast<size_t>(graph_->num_edges()) * 2);
    for (const Edge& e : graph_->edges()) {
      true_edges_.insert(EdgeKey(e.src, e.rel, e.dst));
    }
  }
  // Base representations in memory (exported from disk when needed).
  Tensor values;
  if (config_.storage.use_disk) {
    values = buffer_->ExportAll();
  } else {
    values = mem_store_->values();
  }

  const std::vector<int64_t>& split = use_valid ? graph_->valid_edges() : graph_->test_edges();
  std::vector<int64_t> edge_ids = split;
  if (edge_ids.empty()) {
    for (int64_t e = 0; e < std::min<int64_t>(max_edges, graph_->num_edges()); ++e) {
      edge_ids.push_back(e);
    }
  }
  if (static_cast<int64_t>(edge_ids.size()) > max_edges) {
    edge_ids.resize(static_cast<size_t>(max_edges));
  }

  Rng eval_rng(config_.seed + 97);
  std::vector<int64_t> neg_nodes(static_cast<size_t>(num_negatives));
  for (auto& v : neg_nodes) {
    v = eval_rng.UniformInt(0, graph_->num_nodes());
  }

  std::vector<int64_t> ranks;
  const int64_t chunk = 256;
  for (size_t begin = 0; begin < edge_ids.size(); begin += chunk) {
    const size_t end = std::min(edge_ids.size(), begin + chunk);
    std::vector<int64_t> targets;
    NodeRowMap row_of(std::min(static_cast<int64_t>(2 * (end - begin) + neg_nodes.size()),
                               graph_->num_nodes()));
    auto row = [&](int64_t node) {
      const auto [r, inserted] = row_of.Emplace(node, static_cast<int64_t>(targets.size()));
      if (inserted) {
        targets.push_back(node);
      }
      return r;
    };
    std::vector<int64_t> srcs, dsts;
    std::vector<int32_t> rels;
    for (size_t k = begin; k < end; ++k) {
      const Edge& e = graph_->edge(edge_ids[k]);
      srcs.push_back(row(e.src));
      dsts.push_back(row(e.dst));
      rels.push_back(e.rel);
    }
    std::vector<int64_t> neg_rows;
    for (int64_t n : neg_nodes) {
      neg_rows.push_back(row(n));
    }

    Tensor reprs = InferReprs(targets, values);
    std::vector<float> neg_scores;
    std::vector<float> kept_scores;
    std::vector<float> pos_score;
    // Node ids behind each edge row in this chunk (needed for filtering).
    std::vector<int64_t> src_ids, dst_ids;
    for (size_t k = begin; k < end; ++k) {
      src_ids.push_back(graph_->edge(edge_ids[k]).src);
      dst_ids.push_back(graph_->edge(edge_ids[k]).dst);
    }
    for (size_t k = 0; k < srcs.size(); ++k) {
      // dst corruption.
      model_.decoder->ScoreCandidates(reprs, srcs[k], rels[k], {dsts[k]}, false, &pos_score);
      model_.decoder->ScoreCandidates(reprs, srcs[k], rels[k], neg_rows, false, &neg_scores);
      if (filtered) {
        kept_scores.clear();
        for (size_t j = 0; j < neg_nodes.size(); ++j) {
          if (true_edges_.count(EdgeKey(src_ids[k], rels[k], neg_nodes[j])) == 0) {
            kept_scores.push_back(neg_scores[j]);
          }
        }
        ranks.push_back(RankOfPositive(pos_score[0], kept_scores));
      } else {
        ranks.push_back(RankOfPositive(pos_score[0], neg_scores));
      }
      // src corruption.
      model_.decoder->ScoreCandidates(reprs, dsts[k], rels[k], {srcs[k]}, true, &pos_score);
      model_.decoder->ScoreCandidates(reprs, dsts[k], rels[k], neg_rows, true, &neg_scores);
      if (filtered) {
        kept_scores.clear();
        for (size_t j = 0; j < neg_nodes.size(); ++j) {
          if (true_edges_.count(EdgeKey(neg_nodes[j], rels[k], dst_ids[k])) == 0) {
            kept_scores.push_back(neg_scores[j]);
          }
        }
        ranks.push_back(RankOfPositive(pos_score[0], kept_scores));
      } else {
        ranks.push_back(RankOfPositive(pos_score[0], neg_scores));
      }
    }
  }
  return MrrFromRanks(ranks);
}

}  // namespace mariusgnn
