// Table 6 reproduction: per-mini-batch CPU sampling time, device compute time
// (forward+backward), and #nodes/#edges sampled, for GraphSage GNNs of depth 1-5,
// comparing DENSE against DGL/PyG-style layer-wise resampling. Fanout: 10 incoming +
// 10 outgoing per node per layer, as in the paper. Both methods run the one
// GnnEncoder; the compute column includes lowering the sample to the encoder's plan
// (PlanFromDense / PlanFromBlocks), so it covers each method's per-layer index work.
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/timer.h"

using namespace mariusgnn;
using namespace mariusgnn::bench;

namespace {

constexpr int kRounds = 3;
constexpr int64_t kBatchTargets = 256;
constexpr int64_t kDim = 32;

struct Measurement {
  double sample_ms = 0.0;
  double compute_ms = 0.0;
  int64_t nodes = 0;
  int64_t edges = 0;
  bool oom = false;
};

Measurement MeasureDense(const Graph& /*graph*/, const NeighborIndex& index, int depth,
                         const std::vector<int64_t>& targets) {
  std::vector<int64_t> fanouts(static_cast<size_t>(depth), 10);
  DenseSampler sampler(&index, fanouts, EdgeDirection::kBoth, 3);
  Rng rng(7);
  std::vector<int64_t> dims(static_cast<size_t>(depth) + 1, kDim);
  GnnEncoder encoder(GnnLayerType::kGraphSage, dims, Activation::kRelu, rng);

  Measurement m;
  for (int r = 0; r < kRounds; ++r) {
    WallTimer t;
    DenseBatch batch = sampler.Sample(targets);
    batch.FinalizeForDevice();
    m.sample_ms += t.Millis();
    m.nodes = batch.num_nodes();
    m.edges = batch.num_sampled_edges();

    Tensor h0 = Tensor::Normal(batch.num_nodes(), kDim, 0.5f, rng);
    Tensor grad = Tensor::Full(static_cast<int64_t>(targets.size()), kDim, 1.0f);
    WallTimer t2;
    GnnPlan plan = PlanFromDense(std::move(batch));
    encoder.Forward(plan, h0);
    encoder.Backward(grad);
    m.compute_ms += t2.Millis();
  }
  m.sample_ms /= kRounds;
  m.compute_ms /= kRounds;
  return m;
}

Measurement MeasureLayerwise(const Graph& /*graph*/, const NeighborIndex& index, int depth,
                             const std::vector<int64_t>& targets) {
  std::vector<int64_t> fanouts(static_cast<size_t>(depth), 10);
  LayerwiseSampler sampler(&index, fanouts, EdgeDirection::kBoth, 3);
  Rng rng(7);
  std::vector<int64_t> dims(static_cast<size_t>(depth) + 1, kDim);
  GnnEncoder encoder(GnnLayerType::kGraphSage, dims, Activation::kRelu, rng);

  Measurement m;
  for (int r = 0; r < kRounds; ++r) {
    WallTimer t;
    LayerwiseSample sample = sampler.Sample(targets);
    m.sample_ms += t.Millis();
    m.nodes = sample.NumInputNodes();
    m.edges = sample.TotalSampledEdges();

    Tensor h0 = Tensor::Normal(sample.NumInputNodes(), kDim, 0.5f, rng);
    Tensor grad = Tensor::Full(static_cast<int64_t>(targets.size()), kDim, 1.0f);
    WallTimer t2;
    GnnPlan plan = PlanFromBlocks(sample);
    encoder.Forward(plan, h0);
    encoder.Backward(grad);
    m.compute_ms += t2.Millis();
  }
  m.sample_ms /= kRounds;
  m.compute_ms /= kRounds;
  return m;
}

}  // namespace

int main() {
  PrintHeader("Table 6: sampling + compute per mini batch vs GNN depth (GraphSage)");
  Graph graph = PapersMini(2.0, /*seed=*/21);
  NeighborIndex index(graph);
  std::vector<int64_t> targets;
  for (int64_t v = 0; v < kBatchTargets; ++v) {
    targets.push_back(v * (graph.num_nodes() / kBatchTargets));
  }

  std::printf("%-6s | %-28s | %-28s | %-28s\n", "", "CPU sampling (ms)",
              "Compute fw+bw (ms)", "Nodes / edges per batch");
  std::printf("%-6s | %13s %13s | %13s %13s | %28s\n", "Layers", "M-GNN", "Layerwise",
              "M-GNN", "Layerwise", "M-GNN vs Layerwise");
  for (int depth = 1; depth <= 5; ++depth) {
    const Measurement dense = MeasureDense(graph, index, depth, targets);
    const Measurement layer = MeasureLayerwise(graph, index, depth, targets);
    std::printf("%-6d | %13.2f %13.2f | %13.2f %13.2f | %6lldk/%-6lldk vs %6lldk/%-6lldk\n",
                depth, dense.sample_ms, layer.sample_ms, dense.compute_ms,
                layer.compute_ms, static_cast<long long>(dense.nodes / 1000),
                static_cast<long long>(dense.edges / 1000),
                static_cast<long long>(layer.nodes / 1000),
                static_cast<long long>(layer.edges / 1000));
  }
  std::printf(
      "\nShape check vs paper: the DENSE advantage in sampling time and sampled\n"
      "nodes/edges widens with depth (paper: 14x sampling, 8x compute at 4 layers).\n");
  return 0;
}
