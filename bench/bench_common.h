// Shared helpers for the table/figure reproduction benches.
//
// Scales here are chosen so every bench finishes in at most a couple of minutes on a
// single CPU core; README.md's "Benches" section lists what each bench reproduces.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "src/core/mariusgnn.h"

namespace mariusgnn {
namespace bench {

// Multi-epoch training run summary. The epoch times are modeled, not measured:
// the host-clock compute time plus the unhidden IO stall on SimulatedDisk's
// virtual clock (src/storage/disk.h), so the paper tables' out-of-core costs
// follow the modeled disk rather than this host's page cache.
struct RunResult {
  double modeled_epoch_seconds = 0.0;
  double modeled_total_seconds = 0.0;
  double metric = 0.0;  // MRR or accuracy
  double io_seconds = 0.0;
};

inline RunResult RunLinkPrediction(const Graph& graph, TrainingConfig config,
                                   int epochs, int64_t eval_negatives = 200,
                                   int64_t eval_edges = 500) {
  LinkPredictionTrainer trainer(&graph, config);
  RunResult result;
  for (int e = 0; e < epochs; ++e) {
    const EpochStats stats = trainer.TrainEpoch();
    result.modeled_total_seconds += stats.compute_seconds + stats.io_stall_seconds;
    result.io_seconds += stats.io_seconds;
  }
  result.modeled_epoch_seconds = result.modeled_total_seconds / epochs;
  result.metric = trainer.EvaluateMrr(eval_negatives, eval_edges);
  return result;
}

inline RunResult RunNodeClassification(const Graph& graph, TrainingConfig config,
                                       int epochs) {
  NodeClassificationTrainer trainer(&graph, config);
  RunResult result;
  for (int e = 0; e < epochs; ++e) {
    const EpochStats stats = trainer.TrainEpoch();
    result.modeled_total_seconds += stats.compute_seconds + stats.io_stall_seconds;
    result.io_seconds += stats.io_seconds;
  }
  result.modeled_epoch_seconds = result.modeled_total_seconds / epochs;
  result.metric = trainer.EvaluateTestAccuracy();
  return result;
}

// $/epoch using the paper's AWS P3 prices (Table 2) applied to measured epoch time.
inline double EpochCost(const std::string& instance, double epoch_seconds) {
  return CostModel().CostFor(instance, epoch_seconds);
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace bench
}  // namespace mariusgnn

#endif  // BENCH_BENCH_COMMON_H_
