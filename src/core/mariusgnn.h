// Umbrella header: the public API of the MariusGNN reproduction.
//
// Quick start (see examples/quickstart.cpp):
//
//   Graph graph = Fb15k237Like();
//   TrainingConfig config;
//   config.fanouts = {20};
//   config.dims = {32, 32};
//   LinkPredictionTrainer trainer(&graph, config);
//   for (int epoch = 0; epoch < 5; ++epoch) trainer.TrainEpoch();
//   double mrr = trainer.EvaluateMrr();
//
// Crash-safe checkpointing (src/core/checkpoint.h): both trainers write atomic
// epoch-boundary snapshots — model parameters + Adagrad accumulators, the
// embedding table (flushed through the PartitionBuffer in disk mode), and the
// full RNG/epoch state — behind a format-versioned, checksummed manifest. All
// persistence goes through the atomic-write primitive in src/util/binary_io.h
// (tmp file → fsync → rename), so a crash at any point leaves the previous
// snapshot intact. Because every batch is a pure function of
// MixSeed(run_seed, batch_index), a resumed run is bitwise-identical to one
// that never stopped:
//
//   config.checkpoint.every_n_epochs = 1;
//   config.checkpoint.path = "run.ckpt";
//   LinkPredictionTrainer trainer(&graph, config);   // auto-saves every epoch
//   ...crash...
//   LinkPredictionTrainer resumed(&graph, config);   // same config
//   resumed.ResumeFrom("run.ckpt");                  // continues bit-for-bit
//
// Online serving (src/serve/, see examples/serve_quickstart.cpp): an
// InferenceServer answers concurrent link-prediction / node-classification
// queries straight off checkpoint snapshots — mmapped zero-copy, with the
// kernel page cache holding the hot rows even of tables too big for RAM —
// coalescing concurrent requests into one batched forward and hot-swapping to a
// newer checkpoint without dropping in-flight requests:
//
//   InferenceServer server(&graph, TaskKind::kLinkPrediction,
//                          config.model_config(), {});
//   server.LoadSnapshot("run.ckpt", &error);
//   ServeResult r = server.ScoreLinks(src, rel, candidates);
#ifndef SRC_CORE_MARIUSGNN_H_
#define SRC_CORE_MARIUSGNN_H_

#include "src/core/checkpoint.h"
#include "src/core/config.h"
#include "src/core/link_prediction_trainer.h"
#include "src/core/node_classification_trainer.h"
#include "src/data/datasets.h"
#include "src/data/generators.h"
#include "src/eval/metrics.h"
#include "src/policy/autotune.h"
#include "src/policy/beta.h"
#include "src/policy/bias.h"
#include "src/policy/comet.h"
#include "src/sampler/dense.h"
#include "src/sampler/layerwise.h"
#include "src/serve/server.h"

#endif  // SRC_CORE_MARIUSGNN_H_
