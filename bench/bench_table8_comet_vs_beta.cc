// Table 8 reproduction: COMET vs BETA for disk-based link prediction across model
// (DistMult, GraphSage, GAT) and dataset (FB15k-237-like, Freebase86M-like,
// WikiKG90Mv2-like) combinations, with a buffer holding 1/4 of all partitions. Also
// reports the in-memory MRR as the target each policy tries to recover.
#include "bench/bench_common.h"

using namespace mariusgnn;
using namespace mariusgnn::bench;

namespace {

TrainingConfig ModelConfig(const char* model) {
  TrainingConfig config;
  config.batch_size = 1000;
  config.num_negatives = 64;
  if (std::string(model) == "DistMult") {
    config.fanouts = {};
    config.dims = {16};
  } else if (std::string(model) == "GS") {
    config.layer_type = GnnLayerType::kGraphSage;
    config.fanouts = {20};
    config.dims = {16, 16};
  } else {
    config.layer_type = GnnLayerType::kGat;
    config.fanouts = {10};
    config.direction = EdgeDirection::kIncoming;
    config.dims = {16, 16};
  }
  return config;
}

void RunCombo(const char* model, const char* dataset, const Graph& graph, int epochs) {
  TrainingConfig mem = ModelConfig(model);
  const RunResult mem_result = RunLinkPrediction(graph, mem, epochs);

  // Buffer = 1/4 of partitions: p = 8, c = 2 (COMET: group 1, l = 8, c_l = 2).
  TrainingConfig comet = ModelConfig(model);
  comet.storage.use_disk = true;
  comet.storage.num_physical = 8;
  comet.storage.num_logical = 8;
  comet.storage.buffer_capacity = 2;
  comet.storage.policy = "comet";
  const RunResult comet_result = RunLinkPrediction(graph, comet, epochs);

  TrainingConfig beta = ModelConfig(model);
  beta.storage.use_disk = true;
  beta.storage.num_physical = 8;
  beta.storage.buffer_capacity = 2;
  beta.storage.policy = "beta";
  const RunResult beta_result = RunLinkPrediction(graph, beta, epochs);

  std::printf("%-9s %-10s %10.4f %12.4f %12.4f %14.2f %14.2f %14.6f %14.6f\n", model,
              dataset, mem_result.metric, comet_result.metric, beta_result.metric,
              comet_result.modeled_epoch_seconds, beta_result.modeled_epoch_seconds,
              comet_result.io_seconds, beta_result.io_seconds);
}

}  // namespace

int main() {
  PrintHeader("Table 8: COMET vs BETA (disk-based link prediction, buffer = 1/4)");
  std::printf("%-9s %-10s %10s %12s %12s %14s %14s %14s %14s\n", "Model", "Graph",
              "Mem MRR", "COMET MRR", "BETA MRR", "COMET ep(s)", "BETA ep(s)", "COMET IO(s)",
              "BETA IO(s)");

  Graph fb237 = Fb15k237Like(0.3);
  Graph freebase = FreebaseMini(0.05);
  Graph wiki = WikiMini(0.05);

  RunCombo("DistMult", "237", fb237, 4);
  RunCombo("DistMult", "FB", freebase, 3);
  RunCombo("DistMult", "Wiki", wiki, 3);
  RunCombo("GS", "237", fb237, 4);
  RunCombo("GS", "FB", freebase, 3);
  RunCombo("GS", "Wiki", wiki, 3);
  RunCombo("GAT", "237", fb237, 4);
  RunCombo("GAT", "FB", freebase, 3);

  std::printf(
      "\nIO(s) is the modeled disk time of all epochs (SimulatedDisk), the same in\n"
      "every run; ep(s) adds host-clock compute, so its order can flip between runs.\n"
      "Shape check vs paper: COMET MRR >= BETA MRR on most rows and closer to the\n"
      "in-memory MRR; COMET IO(s) <= BETA IO(s) on every row.\n");
  return 0;
}
