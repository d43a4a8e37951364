// Serial replays for the per-layer budget of a traced benchmark run.
//
// The trainers and the server are opaque from the public API: one TrainEpoch
// or ScoreLinks call covers every layer. To see where the time goes, a traced
// run replays the same work serially through the public layer functions —
// ModelState, the embedding stores, PartitionBuffer, the ordering policies,
// NeighborIndex, the samplers, the encoder/decoder/head and the optimizer —
// in exactly the order the trainer (or server) calls them, with one span per
// call. Because the replay draws from the same seeded RNG in the same order,
// its determinism hash must equal the trainer's first-epoch hash, and every
// replayed serving answer must be bitwise equal to the server's unbatched
// answer: the replay is checked to be the same computation, not a model of it.
#ifndef BENCHMARK_REPLAY_H_
#define BENCHMARK_REPLAY_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "benchmark/trace.h"
#include "src/core/mariusgnn.h"

namespace mgbench {

// One serving request: a link query (src, rel, candidates) or, for node
// classification, the node to classify in `src`.
struct Query {
  int64_t src = 0;
  int32_t rel = 0;
  std::vector<int64_t> candidates;
};

inline bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Span names of the replayed training stages: the layer budget. Each is
// reported as the per-layer metric "<name>_s".
inline constexpr const char* kTrainingStages[] = {
    "policy.plan",           "storage.set_resident", "storage.prefetch",
    "graph.resident_gather", "graph.index_build",    "sampler.targets",
    "sampler.negatives",     "sampler.sample",       "storage.gather",
    "nn.forward",            "nn.loss",              "nn.backward",
    "storage.apply_gradients", "nn.optimizer",       "storage.flush",
};

struct TrainingReplay {
  uint64_t determinism_hash = 0;
  double epoch_seconds = 0.0;  // wall of the replayed epoch
  double spans_seconds = 0.0;  // sum of the stage spans inside that epoch
  int64_t sets = 0;
  int64_t partition_loads = 0;
  int64_t index_edges = 0;  // edges indexed by every NeighborIndex built
  int64_t batches = 0;
  double nodes_per_batch = 0.0;
  double edges_per_batch = 0.0;
};

// Builds the trainer's state from `config` (same RNG draw order as the
// trainer constructor, storage files under `dir`) and replays its first epoch
// serially. Stage spans go to `tracer` under their layer names.
TrainingReplay ReplayTrainingEpoch(const mariusgnn::Graph& graph,
                                   const mariusgnn::TrainingConfig& config,
                                   mariusgnn::TaskKind task, const std::string& dir,
                                   Tracer* tracer);

struct ServingReplay {
  std::vector<double> execute_ms;  // per replayed request
  int64_t mismatches = 0;          // answers not bitwise equal to the oracle
  std::string error;               // non-empty if the snapshot failed to load
};

// Replays `queries` one at a time through the const inference path of a
// snapshot loaded from `checkpoint`, comparing each answer bitwise with the
// server's unbatched path.
ServingReplay ReplayServing(const mariusgnn::Graph& graph, mariusgnn::TaskKind task,
                            const mariusgnn::ModelConfig& config,
                            const std::string& checkpoint,
                            const std::vector<Query>& queries,
                            const mariusgnn::InferenceServer& oracle, Tracer* tracer);

}  // namespace mgbench

#endif  // BENCHMARK_REPLAY_H_
