// Ablation of COMET's two mechanisms (Section 5.1): two-level random logical
// grouping and randomized deferred bucket assignment. Each is disabled in turn to
// measure its contribution to the Edge Permutation Bias and to disk-based MRR; BETA
// is included as the fully-greedy reference.
#include "bench/bench_common.h"

using namespace mariusgnn;
using namespace mariusgnn::bench;

namespace {

struct Variant {
  const char* label;
  bool use_beta;
  bool randomize_grouping;
  bool deferred_assignment;
};

}  // namespace

int main() {
  PrintHeader("Ablation: COMET mechanisms (p=16, c=8, l=8; GraphSage + DistMult)");
  Graph graph = Fb15k237Like(0.3);
  const int32_t p = 16, c = 8, l = 8;

  const Variant variants[] = {
      {"COMET (full)", false, true, true},
      {"- deferred assignment", false, true, false},
      {"- random grouping", false, false, true},
      {"- both (greedy order)", false, false, false},
      {"BETA (physical greedy)", true, false, false},
  };

  std::printf("%-26s %10s %10s %12s\n", "Variant", "Bias", "MRR", "Epoch (s)");
  for (const Variant& v : variants) {
    // Measure bias over fresh epochs of the plan.
    Rng rng(71);
    Partitioning partitioning(graph, p, PartitionAssignment::kRandom, rng);
    std::unique_ptr<OrderingPolicy> policy;
    if (v.use_beta) {
      policy = std::make_unique<BetaPolicy>();
    } else {
      policy = std::make_unique<CometPolicy>(l, v.randomize_grouping,
                                             v.deferred_assignment);
    }
    double bias = 0.0;
    for (int t = 0; t < 3; ++t) {
      bias += EdgePermutationBias(policy->GenerateEpoch(partitioning, c, rng),
                                  partitioning, graph);
    }
    bias /= 3.0;

    TrainingConfig tc;
    tc.layer_type = GnnLayerType::kGraphSage;
    tc.fanouts = {10};
    tc.dims = {16, 16};
    tc.batch_size = 1000;
    tc.num_negatives = 64;
    tc.storage.use_disk = true;
    tc.storage.num_physical = p;
    tc.storage.num_logical = v.use_beta ? p : l;
    tc.storage.buffer_capacity = c;
    tc.storage.policy = v.use_beta ? "beta" : "comet";
    tc.storage.comet_randomize_grouping = v.randomize_grouping;
    tc.storage.comet_deferred_assignment = v.deferred_assignment;
    const RunResult r = RunLinkPrediction(graph, tc, 4);
    std::printf("%-26s %10.3f %10.4f %12.2f\n", v.label, bias, r.metric,
                r.modeled_epoch_seconds);
  }
  std::printf(
      "\nShape check: disabling the deferred assignment raises bias sharply; the\n"
      "fully greedy orders (both-off, BETA) have the highest bias and BETA the lowest\n"
      "MRR. Single-run MRR differences between intermediate variants are within\n"
      "run-to-run noise at this scale.\n");
  return 0;
}
