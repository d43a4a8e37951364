// Table 4 reproduction: link prediction on Freebase86M-like and WikiKG90Mv2-like
// graphs with a 1-layer GraphSage GNN + DistMult decoder. Rows: MariusGNN in-memory,
// MariusGNN disk-based (COMET), and DGL/PyG-style baselines. The DGL-like row uses 5x
// fewer negatives, as the paper had to for DGL.
#include "bench/bench_common.h"

using namespace mariusgnn;
using namespace mariusgnn::bench;

namespace {

void RunDataset(const char* name, const Graph& graph, int epochs) {
  TrainingConfig base;
  base.layer_type = GnnLayerType::kGraphSage;
  base.fanouts = {20};
  base.dims = {32, 32};
  base.decoder = "distmult";
  base.batch_size = 1000;
  base.num_negatives = 100;

  struct Row {
    const char* system;
    RunResult result;
    const char* instance;
  };
  std::vector<Row> rows;

  TrainingConfig mem = base;
  rows.push_back({"M-GNN_Mem", RunLinkPrediction(graph, mem, epochs), "p3.8xlarge"});

  TrainingConfig disk = base;
  disk.storage.use_disk = true;
  disk.storage.num_physical = 8;
  disk.storage.num_logical = 4;
  disk.storage.buffer_capacity = 4;
  disk.storage.policy = "comet";
  rows.push_back({"M-GNN_Disk", RunLinkPrediction(graph, disk, epochs), "p3.2xlarge"});

  TrainingConfig dgl = base;
  dgl.sampler = SamplerKind::kLayerwise;
  dgl.num_negatives = base.num_negatives / 5;
  rows.push_back({"DGL-like", RunLinkPrediction(graph, dgl, epochs), "p3.8xlarge"});

  TrainingConfig pyg = base;
  pyg.sampler = SamplerKind::kLayerwise;
  pyg.seed = 13;
  rows.push_back({"PyG-like", RunLinkPrediction(graph, pyg, epochs), "p3.8xlarge"});

  std::printf("\n-- %s --\n", name);
  std::printf("%-12s %12s %10s %14s %12s\n", "System", "Epoch (s)", "MRR", "$/epoch",
              "IO (s)");
  for (const Row& row : rows) {
    std::printf("%-12s %12.2f %10.4f %14.6f %12.3f\n", row.system,
                row.result.modeled_epoch_seconds, row.result.metric,
                EpochCost(row.instance, row.result.modeled_epoch_seconds),
                row.result.io_seconds);
  }
}

}  // namespace

int main() {
  PrintHeader("Table 4: link prediction (1-layer GraphSage + DistMult)");
  RunDataset("Freebase86M-like", FreebaseMini(0.08), 6);
  RunDataset("WikiKG90Mv2-like", WikiMini(0.08), 6);
  std::printf(
      "\nShape check vs paper: M-GNN rows reach the best MRR; DGL-like trades MRR for\n"
      "time via 5x fewer negatives; M-GNN_Disk is by far the cheapest $/epoch and its\n"
      "Wiki MRR shows the same disk-vs-memory gap the paper reports. Deviation: the\n"
      "baselines here share this repo's C++ sampler, so the paper's 6x baseline\n"
      "slowdown (Python dataloader overhead + per-layer resampling at scale) does not\n"
      "appear at 1 GNN layer; see Table 6 for the sampling-algorithm gap at depth.\n");
  return 0;
}
