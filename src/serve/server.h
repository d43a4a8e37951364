// Online inference server: batched concurrent queries over checkpoint snapshots.
//
// Clients call ScoreLinks / Classify from any number of threads. Requests are
// coalesced by a leader-follower batcher: the first thread to find no active
// leader becomes one, drains the queue in batches of up to max_batch, executes
// each batch, and keeps draining until the queue is empty; every other thread
// just enqueues and blocks on its result. Execution is therefore serialized
// (one leader at a time) while arrival stays fully concurrent — the batch is
// where the throughput comes from, not intra-server parallelism.
//
// Determinism contract (the serving analog of the training pipeline's): every
// answer is bitwise-identical no matter how requests were coalesced. Each
// query's neighborhood is sampled with a content-independent seed
// (MixSeed(config.seed, "SERV")), finalized alone, and merged into one
// block-diagonal DenseBatch (ConcatBlockDiagonal); because the forward kernels
// are row/segment-local, each query's rows through the merged forward match a
// single-query forward bit for bit. ScoreLinksUnbatched / ClassifyUnbatched
// run that reference path directly — tests assert batched == unbatched.
//
// Hot swap: LoadSnapshot builds the next epoch's ModelSnapshot entirely outside
// the server lock, then swaps the shared_ptr. In-flight batches keep the old
// snapshot alive through their own reference, so a swap never drops a request
// and no answer mixes epochs — each batch reads its snapshot pointer exactly
// once and tags every result with that snapshot's epoch.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/model.h"
#include "src/graph/graph.h"
#include "src/graph/neighbor_index.h"
#include "src/serve/model_snapshot.h"
#include "src/util/compute.h"
#include "src/util/rv_monitor.h"
#include "src/util/threadpool.h"

namespace mariusgnn {

struct ServeOptions {
  int64_t max_batch = 64;     // most queries coalesced into one forward
  // Kernel pool for the batched forward; nullptr = serial. Either way the bits
  // are identical (src/util/compute.h), so this is a latency knob only.
  ThreadPool* compute_pool = nullptr;
};

struct ServeResult {
  // Link prediction: score per candidate (parallel to `candidates`).
  // Node classification: one logit per class.
  std::vector<float> values;
  uint64_t epoch = 0;  // the snapshot that answered
};

struct ServerStats {
  uint64_t queries = 0;
  uint64_t batches = 0;          // executed forwards (>= 1 query each)
  int64_t max_coalesced = 0;     // largest batch observed
  uint64_t snapshot_swaps = 0;   // successful LoadSnapshot calls after the first
  // serve.epoch_pin violations observed process-wide (RvRuntime counter): an
  // answer tagged with a different epoch than its batch's pinned snapshot.
  // Always 0 unless the hot-swap isolation is broken.
  uint64_t rv_violations = 0;
};

class InferenceServer {
 public:
  // The server owns one NeighborIndex over the full graph, shared by every
  // snapshot epoch (serving always samples from the full graph).
  InferenceServer(const Graph* graph, TaskKind kind, ModelConfig config,
                  ServeOptions options);

  // Loads `path` into a fresh snapshot and atomically adopts it. Safe to call
  // while requests are in flight; returns false (server unchanged) on any
  // validation or IO failure.
  bool LoadSnapshot(const std::string& path, std::string* error);

  // Scores (src, rel, candidate_j) for every candidate. Blocks until answered;
  // callable from any thread concurrently. src and every candidate must be
  // graph nodes and rel a graph relation; an out-of-range id aborts on the
  // caller's thread, before the query is queued.
  ServeResult ScoreLinks(int64_t src, int32_t rel,
                         const std::vector<int64_t>& candidates);

  // Class logits for one node. Blocks until answered; thread-safe. An
  // out-of-range node aborts like ScoreLinks.
  ServeResult Classify(int64_t node);

  // Reference path: the same query executed alone, no batching or coalescing.
  // The determinism contract promises bitwise-identical values; tests hold the
  // batched path to this oracle. Also the execution path for layerwise models
  // (no block-diagonal merge exists for per-layer resampling).
  ServeResult ScoreLinksUnbatched(int64_t src, int32_t rel,
                                  const std::vector<int64_t>& candidates) const;
  ServeResult ClassifyUnbatched(int64_t node) const;

  uint64_t current_epoch() const;
  ServerStats stats() const;

 private:
  struct Request {
    int64_t src = 0;  // LP source / NC node
    int32_t rel = 0;
    std::vector<int64_t> candidates;  // LP only
    std::promise<ServeResult> promise;
  };
  // Per-query dedup of the rows a link query needs scored: `targets` are the
  // unique node ids (src first), src_row/cand_rows index into them.
  struct LinkPlan {
    std::vector<int64_t> targets;
    int64_t src_row = 0;
    std::vector<int64_t> cand_rows;
  };

  static LinkPlan PlanLinkQuery(int64_t src, const std::vector<int64_t>& candidates);

  // Caller-thread validation of a link query's ids against the graph (aborts).
  void CheckLinkQuery(int64_t src, int32_t rel,
                      const std::vector<int64_t>& candidates) const;

  // Enqueues `req` and runs the leader-follower protocol; returns the result.
  ServeResult Submit(Request req);
  // Executes one coalesced batch against one snapshot (leader thread only).
  void ServeBatch(const ModelSnapshot& snap, std::vector<Request>& batch) const;
  ServeResult ExecuteSingle(const ModelSnapshot& snap, const Request& req) const;

  Tensor GatherBase(const ModelSnapshot& snap, const std::vector<int64_t>& nodes,
                    const ComputeContext* compute) const;

  const Graph* graph_;
  TaskKind kind_;
  ModelConfig config_;
  ServeOptions options_;
  NeighborIndex full_index_;
  uint64_t query_seed_ = 0;  // content-independent sample seed, fixed per server

  // RV monitor (serve.epoch_pin): every answer a batch produces must carry the
  // epoch of the snapshot that batch pinned. Stateless and thread-safe; mutable
  // because the execution paths are const.
  mutable RvEpochPinMonitor rv_epoch_pin_{RvInvariant::kServeEpochPin};

  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;  // swapped by LoadSnapshot
  std::deque<Request> queue_;
  bool leader_active_ = false;
  uint64_t queries_ = 0;
  uint64_t batches_ = 0;
  int64_t max_coalesced_ = 0;
  uint64_t swaps_ = 0;
};

}  // namespace mariusgnn

#endif  // SRC_SERVE_SERVER_H_
