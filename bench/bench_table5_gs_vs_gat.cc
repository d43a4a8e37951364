// Table 5 reproduction: GraphSage vs GAT link prediction on Freebase86M-like data.
// The paper's headline: baselines show *identical* GS and GAT epoch times because
// they are bottlenecked by CPU-side mini-batch construction, while MariusGNN's times
// scale with model cost (its sampling is no longer the bottleneck).
#include "bench/bench_common.h"

using namespace mariusgnn;
using namespace mariusgnn::bench;

namespace {

RunResult Run(const Graph& graph, GnnLayerType type, SamplerKind sampler, bool disk,
              int epochs) {
  TrainingConfig config;
  config.layer_type = type;
  config.fanouts = {type == GnnLayerType::kGat ? 10 : 20};
  config.direction = type == GnnLayerType::kGat ? EdgeDirection::kIncoming
                                                : EdgeDirection::kBoth;
  config.dims = {64, 64};
  config.batch_size = 1000;
  config.num_negatives = 20;  // lighter decoder so encoder cost is visible
  config.sampler = sampler;
  if (disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
  }
  return RunLinkPrediction(graph, config, epochs);
}

}  // namespace

int main() {
  PrintHeader("Table 5: GraphSage vs GAT (link prediction, Freebase86M-like)");
  Graph graph = FreebaseMini(0.06);
  const int epochs = 2;

  struct Row {
    const char* system;
    RunResult gs;
    RunResult gat;
    const char* instance;
  };
  std::vector<Row> rows;
  rows.push_back({"M-GNN_Mem",
                  Run(graph, GnnLayerType::kGraphSage, SamplerKind::kDense, false, epochs),
                  Run(graph, GnnLayerType::kGat, SamplerKind::kDense, false, epochs),
                  "p3.8xlarge"});
  rows.push_back({"M-GNN_Disk",
                  Run(graph, GnnLayerType::kGraphSage, SamplerKind::kDense, true, epochs),
                  Run(graph, GnnLayerType::kGat, SamplerKind::kDense, true, epochs),
                  "p3.2xlarge"});
  rows.push_back({"Baseline-LW",
                  Run(graph, GnnLayerType::kGraphSage, SamplerKind::kLayerwise, false,
                      epochs),
                  Run(graph, GnnLayerType::kGat, SamplerKind::kLayerwise, false, epochs),
                  "p3.8xlarge"});

  std::printf("%-12s %14s %14s %10s %10s %12s %12s\n", "System", "GS epoch(s)",
              "GAT epoch(s)", "GS MRR", "GAT MRR", "GS $/ep", "GAT $/ep");
  for (const Row& row : rows) {
    std::printf("%-12s %14.2f %14.2f %10.4f %10.4f %12.6f %12.6f\n", row.system,
                row.gs.modeled_epoch_seconds, row.gat.modeled_epoch_seconds, row.gs.metric,
                row.gat.metric, EpochCost(row.instance, row.gs.modeled_epoch_seconds),
                EpochCost(row.instance, row.gat.modeled_epoch_seconds));
  }
  std::printf(
      "\nShape check vs paper: MariusGNN's epoch time scales with model cost (GAT >\n"
      "GS) and disk training mutes the gap (smaller in-memory subgraphs). Deviation:\n"
      "the paper's baselines show *flat* GS==GAT times because their CPU sampling\n"
      "dominates; our baseline shares this repo's optimized sampler, so it is\n"
      "compute-bound and scales with the model like MariusGNN does (the\n"
      "sampling-bound regime is demonstrated at depth>=3 in Table 6 instead).\n");
  return 0;
}
