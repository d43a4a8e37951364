// Figure 8 reproduction: COMET auto-tuning rules vs a hyperparameter grid search.
// Every (p, l, c) configuration is trained disk-based for the same number of epochs;
// the scatter of (epoch time, MRR) is printed with the auto-tuned point marked. The
// auto-tuned configuration should sit on the Pareto frontier.
#include "bench/bench_common.h"

using namespace mariusgnn;
using namespace mariusgnn::bench;

namespace {

void RunDataset(const char* name, const Graph& graph, double cpu_budget_bytes,
                int epochs) {
  std::printf("\n-- %s --\n", name);

  AutoTuneInput input;
  input.num_nodes = graph.num_nodes();
  input.num_edges = graph.num_edges();
  input.dim = 16;
  input.cpu_bytes = cpu_budget_bytes;
  const AutoTuneResult tuned = AutoTune(input);

  struct Config {
    int32_t p, l, c;
  };
  std::vector<Config> grid = {
      {8, 8, 2}, {8, 4, 4}, {16, 16, 2}, {16, 8, 4}, {16, 4, 8}, {32, 16, 4}, {32, 8, 8},
  };
  // Ensure the auto-tuned point itself is part of the scan.
  if (!tuned.fits_in_memory) {
    grid.push_back({tuned.num_physical, tuned.num_logical, tuned.buffer_capacity});
  }

  // All grid points must respect the same machine: the buffer has to fit in the CPU
  // budget (grid search cannot cheat with more memory than the auto-tuner had).
  const double no = static_cast<double>(graph.num_nodes()) * 16 * 4;
  const double eo = static_cast<double>(graph.num_edges()) * 20;
  auto feasible = [&](const Config& cfg) {
    const double po = no / cfg.p;
    const double ebo = eo / (static_cast<double>(cfg.p) * cfg.p);
    return cfg.c * po + 2.0 * cfg.c * cfg.c * ebo < 0.9 * cpu_budget_bytes;
  };

  std::printf("%-22s %14s %10s %6s\n", "Config (p,l,c)", "Epoch (s)", "MRR", "");
  for (const Config& cfg : grid) {
    const bool is_tuned = !tuned.fits_in_memory && cfg.p == tuned.num_physical &&
                          cfg.l == tuned.num_logical && cfg.c == tuned.buffer_capacity;
    if (!feasible(cfg)) {
      std::printf("p=%-4d l=%-4d c=%-4d %16s %10s %6s\n", cfg.p, cfg.l, cfg.c,
                  "exceeds mem", "-", is_tuned ? "<auto" : "");
      continue;
    }
    TrainingConfig tc;
    tc.fanouts = {};
    tc.dims = {16};
    tc.batch_size = 1000;
    tc.num_negatives = 64;
    tc.storage.use_disk = true;
    tc.storage.num_physical = cfg.p;
    tc.storage.num_logical = cfg.l;
    tc.storage.buffer_capacity = cfg.c;
    // Slow volume so IO differences are visible at bench scale.
    tc.storage.disk_model.bandwidth_bytes_per_sec = 5e6;
    tc.storage.disk_model.iops = 200;
    tc.storage.disk_model.block_size = 1 << 14;
    const RunResult r = RunLinkPrediction(graph, tc, epochs);
    std::printf("p=%-4d l=%-4d c=%-4d %16.2f %10.4f %6s\n", cfg.p, cfg.l, cfg.c,
                r.modeled_epoch_seconds, r.metric, is_tuned ? "<auto" : "");
  }
}

}  // namespace

int main() {
  PrintHeader("Figure 8: auto-tuning rules vs grid search (DistMult, disk-based)");
  {
    Graph graph = Fb15k237Like(0.3);
    // Synthetic CPU budget: half the node store + edges, forcing disk mode.
    const double budget = static_cast<double>(graph.num_nodes()) * 16 * 4 / 2 +
                          static_cast<double>(graph.num_edges()) * 20;
    RunDataset("FB15k-237-like", graph, budget, 3);
  }
  {
    Graph graph = FreebaseMini(0.05);
    const double budget = static_cast<double>(graph.num_nodes()) * 16 * 4 / 2 +
                          static_cast<double>(graph.num_edges()) * 20;
    RunDataset("Freebase86M-like", graph, budget, 2);
  }
  std::printf(
      "\nShape check vs paper: the auto-tuned point achieves near-best MRR and epoch\n"
      "time simultaneously (no configuration dominates it on both axes).\n");
  return 0;
}
