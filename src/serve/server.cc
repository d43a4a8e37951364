#include "src/serve/server.h"

#include <memory>
#include <string>
#include <utility>

#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/node_row_map.h"
#include "src/util/rng.h"

namespace mariusgnn {

namespace {
// Every query samples with the same content-independent seed, so arrival
// order, concurrency and snapshot swaps can never change a query's
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
                                 ModelConfig config, ServeOptions /*options*/)
    : graph_(graph),
      kind_(kind),
      config_(std::move(config)),
      query_seed_(MixSeed(config_.seed, kServeSeedSalt)) {
  ModelState::ValidateConfig(kind_, *graph_, config_);
  if (config_.num_layers() > 0) {
    full_index_ = std::make_unique<const NeighborIndex>(*graph_);
  }
}

bool InferenceServer::LoadSnapshot(const std::string& path, std::string* error) {
  // The expensive part — manifest parse, parameter reads, mmap setup —
  // happens with no lock held; in-flight queries keep answering from the old
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
  NodeRowMap row_of(static_cast<int64_t>(candidates.size()) + 1);
  auto row_for = [&](int64_t node) {
    const auto [row, inserted] =
        row_of.Emplace(node, static_cast<int64_t>(plan.targets.size()));
    if (inserted) {
      plan.targets.push_back(node);
    }
    return row;
  };
  plan.src_row = row_for(src);
  plan.cand_rows.reserve(candidates.size());
  for (int64_t cand : candidates) {
    plan.cand_rows.push_back(row_for(cand));
  }
  return plan;
}

ServeResult InferenceServer::ScoreLinks(int64_t src, int32_t rel,
                                        const std::vector<int64_t>& candidates) const {
  MG_CHECK_MSG(kind_ == TaskKind::kLinkPrediction,
               "ScoreLinks on a node-classification server");
  CheckQueryId("node", src, graph_->num_nodes());
  CheckQueryId("relation", rel, graph_->num_relations());
  for (int64_t cand : candidates) {
    CheckQueryId("candidate node", cand, graph_->num_nodes());
  }
  return Answer(src, rel, candidates);
}

ServeResult InferenceServer::Classify(int64_t node) const {
  MG_CHECK_MSG(kind_ == TaskKind::kNodeClassification,
               "Classify on a link-prediction server");
  CheckQueryId("node", node, graph_->num_nodes());
  return Answer(node, 0, {});
}

ServeResult InferenceServer::Answer(int64_t src, int32_t rel,
                                    const std::vector<int64_t>& candidates) const {
  std::shared_ptr<const ModelSnapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MG_CHECK_MSG(snapshot_ != nullptr, "serve: no snapshot loaded");
    snap = snapshot_;
  }
  ServeResult result = ExecuteSingle(*snap, src, rel, candidates);
  queries_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Tensor InferenceServer::GatherBase(const ModelSnapshot& snap,
                                   const std::vector<int64_t>& nodes) const {
  if (kind_ == TaskKind::kNodeClassification) {
    return IndexSelect(graph_->features(), nodes, nullptr);
  }
  return snap.embeddings->Gather(nodes, nullptr);
}

ServeResult InferenceServer::ExecuteSingle(const ModelSnapshot& snap, int64_t src,
                                           int32_t rel,
                                           const std::vector<int64_t>& candidates) const {
  const ModelState& model = snap.model;
  const LinkPlan plan = kind_ == TaskKind::kLinkPrediction
                            ? PlanLinkQuery(src, candidates)
                            : LinkPlan{{src}, 0, {}};
  Tensor reprs;
  if (model.has_gnn()) {
    auto gather = [&](const std::vector<int64_t>& nodes) { return GatherBase(snap, nodes); };
    reprs = model.InferReprs(plan.targets, query_seed_, *full_index_, gather, nullptr);
  } else {
    // Decoder-only: the representations are the snapshot's embedding rows.
    reprs = GatherBase(snap, plan.targets);
  }
  ServeResult result;
  result.epoch = snap.epoch;
  if (kind_ == TaskKind::kNodeClassification) {
    Tensor logits = model.head->InferForward(reprs, nullptr);
    result.values.assign(logits.RowPtr(0), logits.RowPtr(0) + logits.cols());
    return result;
  }
  model.decoder->ScoreCandidates(reprs, plan.src_row, rel, plan.cand_rows,
                                 /*corrupt_src=*/false, &result.values);
  return result;
}

uint64_t InferenceServer::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_ != nullptr ? snapshot_->epoch : 0;
}

ServerStats InferenceServer::stats() const {
  ServerStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.snapshot_swaps = swaps_;
  }
  return s;
}

}  // namespace mariusgnn
