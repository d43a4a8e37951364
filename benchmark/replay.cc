#include "benchmark/replay.h"

#include <cmath>
#include <memory>
#include <unordered_map>

#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/rv_monitor.h"

namespace mgbench {

using namespace mariusgnn;

namespace {

// Salt of the server's content-independent query seed ("SERV"; see
// src/serve/server.cc).
constexpr uint64_t kServeSeedSalt = 0x53455256ULL;

// Everything one replayed epoch touches. The members mirror the trainer's:
// the model, its compute handle, and the task storage.
struct ReplayState {
  const Graph* graph = nullptr;
  const TrainingConfig* config = nullptr;
  TaskKind task = TaskKind::kLinkPrediction;
  Tracer* tracer = nullptr;

  ComputeStats compute_stats;
  ComputeContext compute;
  Rng rng;
  ModelState model;

  std::unique_ptr<Partitioning> partitioning;
  std::unique_ptr<PartitionBuffer> buffer;
  std::unique_ptr<EmbeddingStore> store;  // LP table, or NC buffered features
  std::unique_ptr<NeighborIndex> full_index;
  std::vector<char> is_train_edge;

  DeterminismHash hash;
  TrainingReplay out;
  double nodes_sum = 0.0;
  double edges_sum = 0.0;
};

std::unique_ptr<NeighborIndex> BuildIndex(ReplayState& s, const std::vector<Edge>* edges) {
  Span span(s.tracer, "graph.index_build");
  auto index = edges == nullptr
                   ? std::make_unique<NeighborIndex>(*s.graph)
                   : std::make_unique<NeighborIndex>(s.graph->num_nodes(), *edges);
  s.out.index_edges += index->num_edges();
  return index;
}

// Storage set-up in the trainer constructors' RNG draw order (after the
// model's draws, which ModelState::Build already made).
void BuildStorage(ReplayState& s, const std::string& dir) {
  const TrainingConfig& c = *s.config;
  const Graph& g = *s.graph;
  if (s.task == TaskKind::kLinkPrediction) {
    const int64_t dim = c.dims.front();
    const float init_scale = 1.0f / std::sqrt(static_cast<float>(dim));
    s.is_train_edge.assign(static_cast<size_t>(g.num_edges()), g.train_edges().empty() ? 1 : 0);
    for (int64_t e : g.train_edges()) {
      s.is_train_edge[static_cast<size_t>(e)] = 1;
    }
    if (!c.storage.use_disk) {
      s.store = std::make_unique<InMemoryEmbeddingStore>(g.num_nodes(), dim, init_scale, s.rng);
      s.full_index = BuildIndex(s, nullptr);
    } else {
      s.partitioning = std::make_unique<Partitioning>(g, c.storage.num_physical,
                                                      PartitionAssignment::kRandom, s.rng);
      const Tensor init = Tensor::Uniform(g.num_nodes(), dim, init_scale, s.rng);
      s.buffer = std::make_unique<PartitionBuffer>(
          s.partitioning.get(), dim, c.storage.buffer_capacity, dir + "/replay_embeddings.bin",
          c.storage.disk_model, /*learnable=*/true, &init, c.MakePartitionIoOptions());
      s.store = std::make_unique<BufferedEmbeddingStore>(s.buffer.get(), true);
    }
  } else {
    if (!c.storage.use_disk) {
      s.full_index = BuildIndex(s, nullptr);
    } else {
      s.partitioning = std::make_unique<Partitioning>(
          g, c.storage.num_physical, PartitionAssignment::kTrainingNodesFirst, s.rng);
      s.buffer = std::make_unique<PartitionBuffer>(
          s.partitioning.get(), g.features().cols(), c.storage.buffer_capacity,
          dir + "/replay_features.bin", c.storage.disk_model, /*learnable=*/false,
          &g.features(), c.MakePartitionIoOptions());
      s.store = std::make_unique<BufferedEmbeddingStore>(s.buffer.get(), false);
    }
  }
  if (s.store != nullptr) {
    s.store->set_compute(&s.compute);
  }
}

void CountSample(ReplayState& s, int64_t nodes, int64_t edges) {
  s.nodes_sum += static_cast<double>(nodes);
  s.edges_sum += static_cast<double>(edges);
  ++s.out.batches;
}

// One link-prediction batch: LinkPredictionTrainer::PrepareBatch followed by
// ConsumeBatch and the world-1 exchange apply, one span per layer call.
void LinkPredictionBatch(ReplayState& s, const std::vector<int64_t>& edge_ids,
                         const UniformNegativeSampler& negatives, const NeighborIndex& index,
                         uint64_t batch_seed) {
  const Graph& g = *s.graph;
  ModelState& m = s.model;
  std::vector<int64_t> targets;
  std::unordered_map<int64_t, int64_t> row_of;
  auto row = [&](int64_t node) {
    auto [it, inserted] = row_of.emplace(node, static_cast<int64_t>(targets.size()));
    if (inserted) {
      targets.push_back(node);
    }
    return it->second;
  };
  std::vector<int64_t> src_rows, dst_rows, neg_rows;
  std::vector<int32_t> rels;
  {
    Span span(s.tracer, "sampler.targets");
    row_of.reserve(edge_ids.size() * 3);
    src_rows.reserve(edge_ids.size());
    dst_rows.reserve(edge_ids.size());
    rels.reserve(edge_ids.size());
    for (int64_t e : edge_ids) {
      const Edge& edge = g.edge(e);
      src_rows.push_back(row(edge.src));
      dst_rows.push_back(row(edge.dst));
      rels.push_back(edge.rel);
    }
  }
  {
    Span span(s.tracer, "sampler.negatives");
    for (int64_t n : negatives.SampleSeeded(s.config->num_negatives, MixSeed(batch_seed, 1))) {
      neg_rows.push_back(row(n));
    }
  }
  DenseBatch dense;
  std::vector<int64_t> dense_nodes;
  {
    Span span(s.tracer, "sampler.sample");
    if (m.dense_sampler != nullptr) {
      dense = m.dense_sampler->SampleSeeded(targets, MixSeed(batch_seed, 2), &index);
      dense.FinalizeForDevice();
      dense_nodes = dense.node_ids;
    }
  }
  CountSample(s, m.encoder != nullptr ? dense.num_nodes() : static_cast<int64_t>(targets.size()),
              dense.num_sampled_edges());

  const std::vector<int64_t>& rows_in = m.encoder != nullptr ? dense_nodes : targets;
  Tensor reprs;
  {
    Span span(s.tracer, "storage.gather");
    s.store->Gather(rows_in, &reprs);
  }
  {
    Span span(s.tracer, "nn.forward");
    if (m.encoder != nullptr) {
      reprs = m.encoder->Forward(dense, reprs);
    }
  }
  Tensor d_reprs;
  float loss = 0.0f;
  {
    Span span(s.tracer, "nn.loss");
    d_reprs = Tensor(reprs.rows(), reprs.cols());
    loss = m.decoder->LossAndGrad(reprs, src_rows, dst_rows, rels, neg_rows, &d_reprs);
  }
  Tensor sparse_grads;
  {
    Span span(s.tracer, "nn.backward");
    sparse_grads = m.encoder != nullptr ? m.encoder->Backward(d_reprs) : std::move(d_reprs);
  }
  s.hash.FoldFloat(loss);
  {
    Span span(s.tracer, "storage.apply_gradients");
    if (!rows_in.empty()) {
      s.store->ApplyGradients(rows_in, sparse_grads, s.config->embedding_lr);
    }
  }
  {
    Span span(s.tracer, "nn.optimizer");
    if (!m.params.empty()) {
      m.weight_opt->StepAll(m.params);
    }
  }
}

// One node-classification batch (NodeClassificationTrainer::PrepareBatch +
// ConsumeBatch). `from_buffer` mirrors the trainer's use_buffer_features_.
void NodeClassificationBatch(ReplayState& s, const std::vector<int64_t>& nodes,
                             const NeighborIndex& index, uint64_t batch_seed, bool from_buffer) {
  const Graph& g = *s.graph;
  ModelState& m = s.model;
  std::vector<int64_t> labels;
  {
    Span span(s.tracer, "sampler.targets");
    labels.reserve(nodes.size());
    for (int64_t v : nodes) {
      labels.push_back(g.labels()[static_cast<size_t>(v)]);
    }
  }
  { Span span(s.tracer, "sampler.negatives"); }
  DenseBatch dense;
  std::vector<int64_t> dense_nodes;
  {
    Span span(s.tracer, "sampler.sample");
    dense = m.dense_sampler->SampleSeeded(nodes, MixSeed(batch_seed, 2), &index);
    dense.FinalizeForDevice();
    dense_nodes = dense.node_ids;
  }
  CountSample(s, dense.num_nodes(), dense.num_sampled_edges());
  Tensor h0;
  {
    Span span(s.tracer, "storage.gather");
    if (from_buffer) {
      s.store->Gather(dense_nodes, &h0);
    } else {
      h0 = IndexSelect(g.features(), dense_nodes, &s.compute);
    }
  }
  Tensor logits;
  {
    Span span(s.tracer, "nn.forward");
    logits = m.head->Forward(m.encoder->Forward(dense, h0));
  }
  Tensor dlogits;
  float loss = 0.0f;
  {
    Span span(s.tracer, "nn.loss");
    loss = SoftmaxCrossEntropy(logits, labels, &dlogits, &s.compute);
  }
  {
    Span span(s.tracer, "nn.backward");
    m.encoder->Backward(m.head->Backward(dlogits));
  }
  s.hash.FoldFloat(loss);
  { Span span(s.tracer, "storage.apply_gradients"); }
  {
    Span span(s.tracer, "nn.optimizer");
    m.weight_opt->StepAll(m.params);
  }
}

// The trainers' RunBatches for world == 1: one run seed per set, then every
// batch in index order (serially: no pipeline session).
template <typename BatchFn>
void RunBatches(ReplayState& s, const std::vector<int64_t>& ids, BatchFn&& batch) {
  const int64_t total = static_cast<int64_t>(ids.size());
  if (total == 0) {
    return;
  }
  const uint64_t run_seed = s.rng.Next();
  const int64_t bs = s.config->batch_size;
  for (int64_t g = 0; g * bs < total; ++g) {
    std::vector<int64_t> slice;
    {
      Span span(s.tracer, "sampler.targets");
      slice.assign(ids.begin() + g * bs, ids.begin() + std::min(total, (g + 1) * bs));
    }
    batch(slice, ReplicaBatchPartition::BatchSeed(run_seed, g));
  }
}

// Stages a workload does not use still get their (empty) span, so every
// workload reports every stage: in-memory training is a one-set plan with no
// residency, prefetch or flush work.
void LinkPredictionEpoch(ReplayState& s) {
  const Graph& g = *s.graph;
  const TrainingConfig& c = *s.config;
  if (!c.storage.use_disk) {
    std::vector<int64_t> edge_ids;
    {
      Span span(s.tracer, "policy.plan");
      edge_ids = g.train_edges();
      if (edge_ids.empty()) {
        for (int64_t e = 0; e < g.num_edges(); ++e) {
          edge_ids.push_back(e);
        }
      }
      s.rng.Shuffle(edge_ids);
    }
    { Span span(s.tracer, "storage.set_resident"); }
    { Span span(s.tracer, "storage.prefetch"); }
    { Span span(s.tracer, "graph.resident_gather"); }
    std::unique_ptr<UniformNegativeSampler> negatives;
    {
      Span span(s.tracer, "sampler.negatives");
      negatives = std::make_unique<UniformNegativeSampler>(g.num_nodes(), s.rng.Next());
    }
    s.out.sets = 1;
    RunBatches(s, edge_ids, [&](const std::vector<int64_t>& ids, uint64_t seed) {
      LinkPredictionBatch(s, ids, *negatives, *s.full_index, seed);
    });
    { Span span(s.tracer, "storage.flush"); }
    return;
  }

  MG_CHECK_MSG(c.storage.policy == "comet", "the replay implements the COMET policy only");
  CometPolicy policy(c.storage.num_logical, c.storage.comet_randomize_grouping,
                     c.storage.comet_deferred_assignment);
  EpochPlan plan;
  {
    Span span(s.tracer, "policy.plan");
    plan = policy.GenerateEpoch(*s.partitioning, c.storage.buffer_capacity, s.rng);
  }
  s.out.sets = plan.num_sets();
  s.out.partition_loads = plan.TotalPartitionLoads();
  for (int64_t i = 0; i < plan.num_sets(); ++i) {
    const std::vector<int32_t>& set = plan.sets[static_cast<size_t>(i)];
    {
      Span span(s.tracer, "storage.set_resident");
      s.buffer->SetResident(set);
      s.buffer->ConsumeBackgroundIoSeconds();
    }
    {
      Span span(s.tracer, "storage.prefetch");
      if (c.storage.prefetch && i + 1 < plan.num_sets()) {
        s.buffer->Prefetch(policy.Lookahead(plan, i));
      }
    }
    std::vector<Edge> resident_edges;
    {
      Span span(s.tracer, "graph.resident_gather");
      for (int32_t a : set) {
        for (int32_t b : set) {
          for (int64_t e : s.partitioning->Bucket(a, b)) {
            resident_edges.push_back(g.edge(e));
          }
        }
      }
    }
    const std::unique_ptr<NeighborIndex> index = BuildIndex(s, &resident_edges);
    std::vector<int64_t> train_ids;
    {
      Span span(s.tracer, "policy.plan");
      for (const BucketId& bucket : plan.buckets_per_set[static_cast<size_t>(i)]) {
        for (int64_t e : s.partitioning->Bucket(bucket.first, bucket.second)) {
          if (s.is_train_edge[static_cast<size_t>(e)] != 0) {
            train_ids.push_back(e);
          }
        }
      }
      s.rng.Shuffle(train_ids);
    }
    std::unique_ptr<UniformNegativeSampler> negatives;
    {
      Span span(s.tracer, "sampler.negatives");
      negatives =
          std::make_unique<UniformNegativeSampler>(s.buffer->ResidentNodes(), s.rng.Next());
    }
    RunBatches(s, train_ids, [&](const std::vector<int64_t>& ids, uint64_t seed) {
      LinkPredictionBatch(s, ids, *negatives, *index, seed);
    });
  }
  Span span(s.tracer, "storage.flush");
  s.buffer->FlushAll();
  s.buffer->ConsumeBackgroundIoSeconds();
  s.buffer->ConsumeIoStats();
}

void NodeClassificationEpoch(ReplayState& s) {
  const Graph& g = *s.graph;
  const TrainingConfig& c = *s.config;
  std::vector<int64_t> train;
  std::vector<std::vector<int32_t>> sets;
  {
    Span span(s.tracer, "policy.plan");
    train = g.train_nodes();
    s.rng.Shuffle(train);
    if (c.storage.use_disk) {
      sets = NodeCachingPolicy().GenerateEpoch(*s.partitioning, c.storage.buffer_capacity, s.rng);
    }
  }
  if (!c.storage.use_disk) {
    { Span span(s.tracer, "storage.set_resident"); }
    { Span span(s.tracer, "storage.prefetch"); }
    { Span span(s.tracer, "graph.resident_gather"); }
    s.out.sets = 1;
    RunBatches(s, train, [&](const std::vector<int64_t>& ids, uint64_t seed) {
      NodeClassificationBatch(s, ids, *s.full_index, seed, /*from_buffer=*/false);
    });
    { Span span(s.tracer, "storage.flush"); }
    return;
  }

  s.out.sets = static_cast<int64_t>(sets.size());
  std::vector<char> partition_done(static_cast<size_t>(c.storage.num_physical), 0);
  for (size_t i = 0; i < sets.size(); ++i) {
    s.out.partition_loads += static_cast<int64_t>(
        i == 0 ? sets[i].size() : PrefetchDelta(sets[i - 1], sets[i]).size());
    {
      Span span(s.tracer, "storage.set_resident");
      s.buffer->SetResident(sets[i]);
      s.buffer->ConsumeBackgroundIoSeconds();
    }
    {
      Span span(s.tracer, "storage.prefetch");
      if (c.storage.prefetch && i + 1 < sets.size()) {
        s.buffer->Prefetch(PrefetchDelta(sets[i], sets[i + 1]));
      }
    }
    std::vector<Edge> resident_edges;
    std::vector<char> fresh(static_cast<size_t>(c.storage.num_physical), 0);
    {
      Span span(s.tracer, "graph.resident_gather");
      for (int32_t a : sets[i]) {
        if (partition_done[static_cast<size_t>(a)] == 0) {
          fresh[static_cast<size_t>(a)] = 1;
          partition_done[static_cast<size_t>(a)] = 1;
        }
        for (int32_t b : sets[i]) {
          for (int64_t e : s.partitioning->Bucket(a, b)) {
            resident_edges.push_back(g.edge(e));
          }
        }
      }
    }
    const std::unique_ptr<NeighborIndex> index = BuildIndex(s, &resident_edges);
    std::vector<int64_t> subset;
    {
      Span span(s.tracer, "policy.plan");
      for (int64_t v : train) {
        if (fresh[static_cast<size_t>(s.partitioning->PartitionOf(v))] != 0) {
          subset.push_back(v);
        }
      }
    }
    RunBatches(s, subset, [&](const std::vector<int64_t>& ids, uint64_t seed) {
      NodeClassificationBatch(s, ids, *index, seed, /*from_buffer=*/true);
    });
  }
  // The node-classification buffer is read-only: the epoch ends without a flush.
  { Span span(s.tracer, "storage.flush"); }
  s.buffer->ConsumeIoStats();
}

}  // namespace

TrainingReplay ReplayTrainingEpoch(const Graph& graph, const TrainingConfig& config,
                                   TaskKind task, const std::string& dir, Tracer* tracer) {
  MG_CHECK_MSG(config.sampler == SamplerKind::kDense, "the replay implements DENSE sampling only");
  MG_CHECK_MSG(tracer->enabled(), "the replay needs an enabled tracer");
  ReplayState s;
  s.graph = &graph;
  s.config = &config;
  s.task = task;
  s.tracer = tracer;
  s.compute = config.MakeComputeContext(&s.compute_stats);
  s.rng = Rng(config.seed);
  s.model = ModelState::Build(task, graph, config.model_config(), s.rng);
  s.model.SetCompute(&s.compute);
  BuildStorage(s, dir);

  // Stage totals before the epoch (the in-memory index build belongs to set-up).
  double before = 0.0;
  for (const char* stage : kTrainingStages) {
    before += tracer->TotalSeconds(stage);
  }
  const Clock::time_point begin = Clock::now();
  if (task == TaskKind::kLinkPrediction) {
    LinkPredictionEpoch(s);
  } else {
    NodeClassificationEpoch(s);
  }
  const Clock::time_point end = Clock::now();
  tracer->Record("core.replay_epoch", 0, begin, end);

  double after = 0.0;
  for (const char* stage : kTrainingStages) {
    after += tracer->TotalSeconds(stage);
  }
  s.out.determinism_hash = s.hash.value();
  s.out.epoch_seconds = SecondsBetween(begin, end);
  s.out.spans_seconds = after - before;
  if (s.out.batches > 0) {
    s.out.nodes_per_batch = s.nodes_sum / static_cast<double>(s.out.batches);
    s.out.edges_per_batch = s.edges_sum / static_cast<double>(s.out.batches);
  }
  return s.out;
}

ServingReplay ReplayServing(const Graph& graph, TaskKind task, const ModelConfig& config,
                            const std::string& checkpoint, const std::vector<Query>& queries,
                            const InferenceServer& oracle, Tracer* tracer) {
  ServingReplay out;
  const std::shared_ptr<const ModelSnapshot> snap =
      ModelSnapshot::Load(checkpoint, graph, task, config, SnapshotOptions(), &out.error);
  if (snap == nullptr) {
    return out;
  }
  const ModelState& m = snap->model;
  const NeighborIndex index(graph);
  const uint64_t seed = MixSeed(config.seed, kServeSeedSalt);
  const ComputeContext compute{nullptr, nullptr};  // the server's default: serial
  for (const Query& q : queries) {
    const Clock::time_point begin = Clock::now();
    std::vector<int64_t> targets;
    std::vector<int64_t> cand_rows;
    int64_t src_row = 0;
    {
      Span span(tracer, "serve.plan");
      std::unordered_map<int64_t, int64_t> row_of;
      auto row = [&](int64_t node) {
        auto [it, inserted] = row_of.emplace(node, static_cast<int64_t>(targets.size()));
        if (inserted) {
          targets.push_back(node);
        }
        return it->second;
      };
      src_row = row(q.src);
      for (int64_t cand : q.candidates) {
        cand_rows.push_back(row(cand));
      }
    }
    DenseBatch batch;
    {
      Span span(tracer, "serve.sample");
      if (m.encoder != nullptr) {
        batch = m.dense_sampler->SampleSeeded(targets, seed, &index);
        batch.FinalizeForDevice();
      }
    }
    const std::vector<int64_t>& rows = m.encoder != nullptr ? batch.node_ids : targets;
    Tensor reprs;
    {
      Span span(tracer, "serve.gather");
      reprs = task == TaskKind::kNodeClassification ? IndexSelect(graph.features(), rows, &compute)
                                                    : snap->embeddings->Gather(rows, &compute);
    }
    {
      Span span(tracer, "serve.forward");
      if (m.encoder != nullptr) {
        reprs = m.encoder->InferForward(batch, reprs, &compute);
      }
    }
    std::vector<float> values;
    {
      Span span(tracer, "serve.score");
      if (task == TaskKind::kNodeClassification) {
        const Tensor logits = m.head->InferForward(reprs, &compute);
        values.assign(logits.RowPtr(0), logits.RowPtr(0) + logits.cols());
      } else {
        m.decoder->ScoreCandidates(reprs, src_row, q.rel, cand_rows, /*corrupt_src=*/false,
                                   &values);
      }
    }
    out.execute_ms.push_back(SecondsBetween(begin, Clock::now()) * 1e3);
    const ServeResult want = task == TaskKind::kNodeClassification
                                 ? oracle.ClassifyUnbatched(q.src)
                                 : oracle.ScoreLinksUnbatched(q.src, q.rel, q.candidates);
    if (!BitwiseEqual(values, want.values)) {
      ++out.mismatches;
    }
  }
  return out;
}

}  // namespace mgbench
