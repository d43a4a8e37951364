// Online inference server: concurrent queries over checkpoint snapshots.
//
// Clients call ScoreLinks / Classify from any number of threads, and each call
// is answered on its caller's thread: it checks the query's ids, pins the
// current snapshot (one shared_ptr copy under the server lock), and runs the
// query's forward against that snapshot with no lock held. Nothing is queued,
// merged or handed between threads, so concurrent queries execute in parallel
// on their own threads; the snapshot's const inference path writes no shared
// state (src/core/model.h).
//
// Determinism contract (the serving analog of the training pipeline's): every
// answer is a pure function of (snapshot, query). Each query's neighborhood is
// sampled with a content-independent seed (MixSeed(config.seed, "SERV")) and
// executed alone with serial kernels, so arrival order, concurrency and
// snapshot swaps can never change a query's bits.
//
// Hot swap: LoadSnapshot builds the next epoch's ModelSnapshot entirely outside
// the server lock, then swaps the shared_ptr. In-flight queries keep the old
// snapshot alive through their own reference, so a swap never drops a request
// and no answer mixes epochs — each query reads its snapshot pointer exactly
// once and tags its result with that snapshot's epoch.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/model.h"
#include "src/graph/graph.h"
#include "src/graph/neighbor_index.h"
#include "src/serve/model_snapshot.h"

namespace mariusgnn {

// Serving has no settings. The empty struct stays only because
// benchmark/workloads.cc constructs the server with ServeOptions().
struct ServeOptions {};

struct ServeResult {
  // Link prediction: score per candidate (parallel to `candidates`).
  // Node classification: one logit per class.
  std::vector<float> values;
  uint64_t epoch = 0;  // the snapshot that answered
};

struct ServerStats {
  uint64_t queries = 0;
  uint64_t snapshot_swaps = 0;   // successful LoadSnapshot calls after the first
};

class InferenceServer {
 public:
  // A model with a GNN samples from one NeighborIndex over the full graph,
  // built here and shared by every snapshot epoch; a decoder-only model needs
  // none and gathers its rows straight from the snapshot.
  InferenceServer(const Graph* graph, TaskKind kind, ModelConfig config,
                  ServeOptions options);

  // Loads `path` into a fresh snapshot and atomically adopts it. Safe to call
  // while requests are in flight; returns false (server unchanged) on any
  // validation or IO failure.
  bool LoadSnapshot(const std::string& path, std::string* error);

  // Scores (src, rel, candidate_j) for every candidate on the caller's thread;
  // callable from any thread concurrently. src and every candidate must be
  // graph nodes and rel a graph relation; an out-of-range id aborts on the
  // caller's thread before any snapshot is touched.
  ServeResult ScoreLinks(int64_t src, int32_t rel,
                         const std::vector<int64_t>& candidates) const;

  // Class logits for one node, on the caller's thread; thread-safe. An
  // out-of-range node aborts like ScoreLinks.
  ServeResult Classify(int64_t node) const;

  // Alias of ScoreLinks: there is one execution path. It stays only because
  // benchmark/workloads.cc and benchmark/replay.cc call it.
  ServeResult ScoreLinksUnbatched(int64_t src, int32_t rel,
                                  const std::vector<int64_t>& candidates) const {
    return ScoreLinks(src, rel, candidates);
  }
  // Alias of Classify, kept for the same benchmark callers.
  ServeResult ClassifyUnbatched(int64_t node) const { return Classify(node); }

  uint64_t current_epoch() const;
  ServerStats stats() const;

  // Per-query dedup of the rows a link query needs scored: `targets` are the
  // unique node ids in first-occurrence order (src first), src_row/cand_rows
  // index into them.
  struct LinkPlan {
    std::vector<int64_t> targets;
    int64_t src_row = 0;
    std::vector<int64_t> cand_rows;
  };

  static LinkPlan PlanLinkQuery(int64_t src, const std::vector<int64_t>& candidates);

 private:
  // Pins the current snapshot (aborts if none is loaded), answers the checked
  // query against it and counts it.
  ServeResult Answer(int64_t src, int32_t rel,
                     const std::vector<int64_t>& candidates) const;

  // Answers one query against `snap` with serial kernels. `candidates` is
  // empty for node classification.
  ServeResult ExecuteSingle(const ModelSnapshot& snap, int64_t src, int32_t rel,
                            const std::vector<int64_t>& candidates) const;

  Tensor GatherBase(const ModelSnapshot& snap, const std::vector<int64_t>& nodes) const;

  const Graph* graph_;
  TaskKind kind_;
  ModelConfig config_;
  std::unique_ptr<const NeighborIndex> full_index_;  // null without a GNN
  uint64_t query_seed_ = 0;  // content-independent sample seed, fixed per server

  mutable std::atomic<uint64_t> queries_{0};
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;  // swapped by LoadSnapshot
  uint64_t swaps_ = 0;
};

}  // namespace mariusgnn

#endif  // SRC_SERVE_SERVER_H_
