// Out-of-core (disk-based) link prediction with the COMET partition replacement
// policy: the graph's base representations live on a simulated EBS volume and only a
// buffer of partitions is resident in memory — the paper's M-GNN_Disk configuration.
#include <cstdio>

#include "src/core/mariusgnn.h"

using namespace mariusgnn;

int main() {
  Graph graph = FreebaseMini(/*scale=*/0.1);
  std::printf("graph: %lld nodes, %lld edges, %d relations\n",
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()), graph.num_relations());

  TrainingConfig config;
  config.fanouts = {20};
  config.dims = {32, 32};
  config.decoder = "distmult";
  config.batch_size = 1000;
  config.num_negatives = 64;

  // Disk-based storage: 8 physical partitions grouped into 4 logical ones, a buffer
  // of 4 physical partitions (1/2 of the graph resident at a time).
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  config.storage.policy = "comet";

  LinkPredictionTrainer trainer(&graph, config);
  for (int epoch = 1; epoch <= 4; ++epoch) {
    const EpochStats stats = trainer.TrainEpoch();
    std::printf(
        "epoch %d: loss=%.4f  compute=%.2fs  io=%.3fs (stall %.3fs)  sets=%lld\n",
        epoch, stats.loss, stats.compute_seconds, stats.io_seconds,
        stats.io_stall_seconds, static_cast<long long>(stats.num_partition_sets));
    // Batched IO engine traffic: bytes moved through the submission queue and
    // how deep it actually ran (mean outstanding requests / peak in flight).
    std::printf("         io_read=%.1fMB io_write=%.1fMB qd_mean=%.2f inflight_peak=%d\n",
                stats.io_read_bytes / 1.0e6, stats.io_write_bytes / 1.0e6,
                stats.io_queue_depth_mean, stats.io_inflight_peak);
    // The epoch's determinism hash (compare against an in-memory or serial run
    // of the same config to prove the out-of-core path preserved the batch
    // stream) and any RV monitor violations (always 0 in a healthy build).
    std::printf("         hash=%016llx  rv=%llu\n",
                static_cast<unsigned long long>(stats.determinism_hash),
                static_cast<unsigned long long>(stats.rv_violations));
  }
  std::printf("MRR: %.4f\n", trainer.EvaluateMrr(200, 500));
  return 0;
}
