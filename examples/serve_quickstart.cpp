// Serving quickstart: train a link-prediction model, checkpoint it, and serve
// link-scoring queries online — each request is answered on its caller's
// thread, answers are bitwise-independent of concurrency, and the server
// hot-swaps to a newer checkpoint without dropping in-flight requests.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target serve_quickstart
//   ./build/serve_quickstart
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/mariusgnn.h"
#include "src/util/binary_io.h"
#include "src/util/rv_monitor.h"

using namespace mariusgnn;

int main() {
  // 1. Train a small GraphSage + DistMult model and checkpoint two epochs.
  Graph graph = Fb15k237Like(/*scale=*/0.25);
  TrainingConfig config;
  config.fanouts = {20};
  config.dims = {32, 32};
  config.batch_size = 1000;
  config.num_negatives = 64;

  LinkPredictionTrainer trainer(&graph, config);
  trainer.TrainEpoch();
  const std::string ckpt_e1 = TempPath("serve_quickstart_e1");
  trainer.SaveCheckpoint(ckpt_e1);
  trainer.TrainEpoch();
  const std::string ckpt_e2 = TempPath("serve_quickstart_e2");
  trainer.SaveCheckpoint(ckpt_e2);
  std::printf("trained 2 epochs, checkpoints at %s / %s\n", ckpt_e1.c_str(),
              ckpt_e2.c_str());

  // 2. Start a server on the epoch-1 snapshot. The model config must match the
  //    training run; the snapshot is mmapped (v2 checkpoints keep every section
  //    4 KiB-aligned, so embedding rows are gathered zero-copy). Tables too big
  //    for RAM need no option: the kernel pages rows of the mapping in and out.
  InferenceServer server(&graph, TaskKind::kLinkPrediction, config.model_config(),
                         ServeOptions{});
  std::string error;
  if (!server.LoadSnapshot(ckpt_e1, &error)) {
    std::printf("load failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("serving epoch %llu\n",
              static_cast<unsigned long long>(server.current_epoch()));

  // 3. Score candidate destinations for a few source nodes — from concurrent
  //    client threads, each of which runs its own query's forward. Every answer
  //    is bitwise-identical to scoring the query alone, whatever else runs.
  const std::vector<int64_t> candidates = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::thread> clients;
  for (int64_t src : {10, 20, 30, 40}) {
    clients.emplace_back([&, src] {
      const ServeResult r = server.ScoreLinks(src, /*rel=*/0, candidates);
      std::printf("src=%lld (epoch %llu): best candidate %lld\n",
                  static_cast<long long>(src),
                  static_cast<unsigned long long>(r.epoch),
                  static_cast<long long>(candidates[static_cast<size_t>(
                      std::max_element(r.values.begin(), r.values.end()) -
                      r.values.begin())]));
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  // 4. Hot-swap to the epoch-2 snapshot. In-flight requests finish against the
  //    old epoch (each pinned it); new requests answer from the new one.
  if (!server.LoadSnapshot(ckpt_e2, &error)) {
    std::printf("swap failed: %s\n", error.c_str());
    return 1;
  }
  const ServeResult after = server.ScoreLinks(10, 0, candidates);
  std::printf("after swap: epoch %llu\n",
              static_cast<unsigned long long>(after.epoch));

  const ServerStats stats = server.stats();
  std::printf("served %llu queries, %llu swap\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.snapshot_swaps));
  // Any breach of an always-on RV monitor during the run (the training
  // pipeline's among them) fails the smoke run.
  const uint64_t rv = RvRuntime::Global().TotalViolations();
  std::printf("rv violations: %llu\n", static_cast<unsigned long long>(rv));
  std::remove(ckpt_e1.c_str());
  std::remove(ckpt_e2.c_str());
  return rv == 0 ? 0 : 1;
}
