#include "src/serve/server.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/sampler/dense.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace mariusgnn {

namespace {
// Every query samples with the same content-independent seed, so batching
// composition, arrival order, and snapshot swaps can never change a query's
// neighborhood sample ("SERV").
constexpr uint64_t kServeSeedSalt = 0x53455256ULL;

// Aborts, naming the value, unless 0 <= value < limit.
void CheckQueryId(const char* what, int64_t value, int64_t limit) {
  MG_CHECK_MSG(value >= 0 && value < limit,
               ("serve: " + std::string(what) + " " + std::to_string(value) +
                " is out of range [0, " + std::to_string(limit) + ")")
                   .c_str());
}
}  // namespace

InferenceServer::InferenceServer(const Graph* graph, TaskKind kind,
                                 ModelConfig config, ServeOptions options)
    : graph_(graph),
      kind_(kind),
      config_(std::move(config)),
      options_(std::move(options)),
      full_index_(*graph),
      query_seed_(MixSeed(config_.seed, kServeSeedSalt)) {
  MG_CHECK_MSG(options_.max_batch >= 1, "serve: max_batch must be >= 1");
  ModelState::ValidateConfig(kind_, *graph_, config_);
}

bool InferenceServer::LoadSnapshot(const std::string& path, std::string* error) {
  // The expensive part — manifest parse, parameter reads, mmap setup —
  // happens with no lock held; in-flight batches keep answering from the old
  // epoch until the pointer swap below.
  std::shared_ptr<const ModelSnapshot> next =
      ModelSnapshot::Load(path, *graph_, kind_, config_, SnapshotOptions(), error);
  if (next == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_ != nullptr) {
    ++swaps_;
  }
  snapshot_ = std::move(next);
  return true;
}

InferenceServer::LinkPlan InferenceServer::PlanLinkQuery(
    int64_t src, const std::vector<int64_t>& candidates) {
  LinkPlan plan;
  std::unordered_map<int64_t, int64_t> row_of;
  row_of.reserve(candidates.size() + 1);
  auto row_for = [&](int64_t node) {
    auto it = row_of.find(node);
    if (it != row_of.end()) {
      return it->second;
    }
    const int64_t row = static_cast<int64_t>(plan.targets.size());
    plan.targets.push_back(node);
    row_of.emplace(node, row);
    return row;
  };
  plan.src_row = row_for(src);
  plan.cand_rows.reserve(candidates.size());
  for (int64_t cand : candidates) {
    plan.cand_rows.push_back(row_for(cand));
  }
  return plan;
}

void InferenceServer::CheckLinkQuery(int64_t src, int32_t rel,
                                     const std::vector<int64_t>& candidates) const {
  CheckQueryId("node", src, graph_->num_nodes());
  CheckQueryId("relation", rel, graph_->num_relations());
  for (int64_t cand : candidates) {
    CheckQueryId("candidate node", cand, graph_->num_nodes());
  }
}

ServeResult InferenceServer::ScoreLinks(int64_t src, int32_t rel,
                                        const std::vector<int64_t>& candidates) {
  MG_CHECK_MSG(kind_ == TaskKind::kLinkPrediction,
               "ScoreLinks on a node-classification server");
  CheckLinkQuery(src, rel, candidates);
  Request req;
  req.src = src;
  req.rel = rel;
  req.candidates = candidates;
  return Submit(std::move(req));
}

ServeResult InferenceServer::Classify(int64_t node) {
  MG_CHECK_MSG(kind_ == TaskKind::kNodeClassification,
               "Classify on a link-prediction server");
  CheckQueryId("node", node, graph_->num_nodes());
  Request req;
  req.src = node;
  return Submit(std::move(req));
}

ServeResult InferenceServer::Submit(Request req) {
  std::future<ServeResult> result = req.promise.get_future();
  std::unique_lock<std::mutex> lock(mu_);
  MG_CHECK_MSG(snapshot_ != nullptr, "serve: no snapshot loaded");
  queue_.push_back(std::move(req));
  if (!leader_active_) {
    // Leader: drain until empty (new arrivals during ServeBatch included),
    // re-reading the snapshot pointer per batch so a hot swap takes effect at
    // the next batch boundary without ever splitting a batch across epochs.
    leader_active_ = true;
    while (!queue_.empty()) {
      const size_t take = std::min(queue_.size(), static_cast<size_t>(options_.max_batch));
      std::vector<Request> batch;
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      std::shared_ptr<const ModelSnapshot> snap = snapshot_;
      ++batches_;
      queries_ += take;
      max_coalesced_ = std::max(max_coalesced_, static_cast<int64_t>(take));
      lock.unlock();
      ServeBatch(*snap, batch);
      lock.lock();
    }
    leader_active_ = false;
  }
  lock.unlock();
  return result.get();
}

Tensor InferenceServer::GatherBase(const ModelSnapshot& snap,
                                   const std::vector<int64_t>& nodes,
                                   const ComputeContext* compute) const {
  if (kind_ == TaskKind::kNodeClassification) {
    return IndexSelect(graph_->features(), nodes, compute);
  }
  return snap.embeddings->Gather(nodes, compute);
}

ServeResult InferenceServer::ExecuteSingle(const ModelSnapshot& snap,
                                           const Request& req) const {
  const ComputeContext compute{options_.compute_pool, nullptr};
  auto gather = [&](const std::vector<int64_t>& nodes) {
    return GatherBase(snap, nodes, &compute);
  };
  ServeResult result;
  result.epoch = snap.epoch;
  if (kind_ == TaskKind::kNodeClassification) {
    Tensor logits =
        snap.model.InferLogits({req.src}, query_seed_, full_index_, gather, &compute);
    result.values.assign(logits.RowPtr(0), logits.RowPtr(0) + logits.cols());
    return result;
  }
  const LinkPlan plan = PlanLinkQuery(req.src, req.candidates);
  Tensor reprs =
      snap.model.InferReprs(plan.targets, query_seed_, full_index_, gather, &compute);
  snap.model.decoder->ScoreCandidates(reprs, plan.src_row, req.rel, plan.cand_rows,
                                      /*corrupt_src=*/false, &result.values);
  return result;
}

void InferenceServer::ServeBatch(const ModelSnapshot& snap,
                                 std::vector<Request>& batch) const {
  const ComputeContext compute{options_.compute_pool, nullptr};
  const ModelState& model = snap.model;

  // Layerwise models have no block-diagonal merge (per-layer resampling), so
  // the coalesced batch executes query-by-query against the one snapshot.
  if (model.block_encoder != nullptr) {
    for (Request& req : batch) {
      ServeResult result = ExecuteSingle(snap, req);
      rv_epoch_pin_.ObserveAnswer(snap.epoch, result.epoch);
      req.promise.set_value(std::move(result));
    }
    return;
  }

  std::vector<LinkPlan> plans;
  plans.reserve(batch.size());
  for (const Request& req : batch) {
    plans.push_back(kind_ == TaskKind::kLinkPrediction
                        ? PlanLinkQuery(req.src, req.candidates)
                        : LinkPlan{{req.src}, 0, {}});
  }

  Tensor reprs;
  std::vector<int64_t> bases;  // per-query target-row range in `reprs`
  if (model.encoder != nullptr) {
    // Sample each query alone (seed is content-independent, so these are the
    // exact samples the unbatched path takes), then merge block-diagonally
    // into ONE forward. Row-local kernels make each query's rows bitwise
    // identical to its single-query forward.
    std::vector<DenseBatch> samples;
    samples.reserve(batch.size());
    std::vector<const DenseBatch*> ptrs;
    ptrs.reserve(batch.size());
    for (const LinkPlan& plan : plans) {
      samples.push_back(
          model.dense_sampler->SampleSeeded(plan.targets, query_seed_, &full_index_));
      samples.back().FinalizeForDevice();
      ptrs.push_back(&samples.back());
    }
    DenseBatch merged = ConcatBlockDiagonal(ptrs, &bases);
    Tensor h0 = GatherBase(snap, merged.node_ids, &compute);
    reprs = model.encoder->InferForward(merged, h0, &compute);
  } else {
    // Decoder-only link prediction: representations are the embedding rows.
    std::vector<int64_t> merged_targets;
    bases.assign(1, 0);
    for (const LinkPlan& plan : plans) {
      merged_targets.insert(merged_targets.end(), plan.targets.begin(),
                            plan.targets.end());
      bases.push_back(static_cast<int64_t>(merged_targets.size()));
    }
    reprs = GatherBase(snap, merged_targets, &compute);
  }

  if (kind_ == TaskKind::kNodeClassification) {
    Tensor logits = model.head->InferForward(reprs, &compute);
    for (size_t q = 0; q < batch.size(); ++q) {
      ServeResult result;
      result.epoch = snap.epoch;
      const float* row = logits.RowPtr(bases[q]);  // one target row per query
      result.values.assign(row, row + logits.cols());
      rv_epoch_pin_.ObserveAnswer(snap.epoch, result.epoch);
      batch[q].promise.set_value(std::move(result));
    }
    return;
  }

  std::vector<int64_t> shifted;
  for (size_t q = 0; q < batch.size(); ++q) {
    const LinkPlan& plan = plans[q];
    shifted.resize(plan.cand_rows.size());
    for (size_t j = 0; j < plan.cand_rows.size(); ++j) {
      shifted[j] = bases[q] + plan.cand_rows[j];
    }
    ServeResult result;
    result.epoch = snap.epoch;
    model.decoder->ScoreCandidates(reprs, bases[q] + plan.src_row, batch[q].rel,
                                   shifted, /*corrupt_src=*/false, &result.values);
    rv_epoch_pin_.ObserveAnswer(snap.epoch, result.epoch);
    batch[q].promise.set_value(std::move(result));
  }
}

ServeResult InferenceServer::ScoreLinksUnbatched(
    int64_t src, int32_t rel, const std::vector<int64_t>& candidates) const {
  MG_CHECK_MSG(kind_ == TaskKind::kLinkPrediction,
               "ScoreLinksUnbatched on a node-classification server");
  CheckLinkQuery(src, rel, candidates);
  std::shared_ptr<const ModelSnapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MG_CHECK_MSG(snapshot_ != nullptr, "serve: no snapshot loaded");
    snap = snapshot_;
  }
  Request req;
  req.src = src;
  req.rel = rel;
  req.candidates = candidates;
  return ExecuteSingle(*snap, req);
}

ServeResult InferenceServer::ClassifyUnbatched(int64_t node) const {
  MG_CHECK_MSG(kind_ == TaskKind::kNodeClassification,
               "ClassifyUnbatched on a link-prediction server");
  CheckQueryId("node", node, graph_->num_nodes());
  std::shared_ptr<const ModelSnapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MG_CHECK_MSG(snapshot_ != nullptr, "serve: no snapshot loaded");
    snap = snapshot_;
  }
  Request req;
  req.src = node;
  return ExecuteSingle(*snap, req);
}

uint64_t InferenceServer::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_ != nullptr ? snapshot_->epoch : 0;
}

ServerStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s;
  s.queries = queries_;
  s.batches = batches_;
  s.max_coalesced = max_coalesced_;
  s.snapshot_swaps = swaps_;
  s.rv_violations =
      RvRuntime::Global().violations(RvInvariant::kServeEpochPin);
  return s;
}

}  // namespace mariusgnn
