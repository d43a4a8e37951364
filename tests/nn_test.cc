// Gradient-checked tests for GNN layers, encoders, decoders, the linear head, and
// optimizers. Analytic backward passes are validated against central finite
// differences — the strongest correctness evidence for a manual-backprop library.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>

#include "src/data/datasets.h"
#include "src/nn/decoder.h"
#include "src/nn/encoder.h"
#include "src/nn/gat.h"
#include "src/nn/gcn.h"
#include "src/nn/graphsage.h"
#include "src/nn/linear.h"
#include "src/nn/optimizer.h"
#include "src/storage/embedding_store.h"
#include "src/tensor/ops.h"
#include "src/util/threadpool.h"
#include "tests/ranking_loss_reference.h"

namespace mariusgnn {
namespace {

// Small fixed view: 5 input rows, 2 output nodes.
LayerView MakeView(const Tensor* h) {
  LayerView view;
  view.h = h;
  view.self_rows = {3, 4};
  view.nbr_rows = {0, 1, 2, 1};
  view.seg_offsets = {0, 3, 4};
  return view;
}

// loss = <weights, layer(h)>; returns loss and, via Backward, analytic gradients.
double LayerLoss(GnnLayer& layer, const Tensor& h, const Tensor& w_out,
                 Tensor* dh = nullptr) {
  LayerView view = MakeView(&h);
  std::unique_ptr<LayerContext> ctx;
  Tensor out = layer.Forward(view, &ctx);
  double loss = 0.0;
  for (int64_t i = 0; i < out.size(); ++i) {
    loss += static_cast<double>(out.data()[i]) * w_out.data()[i];
  }
  if (dh != nullptr) {
    *dh = layer.Backward(*ctx, w_out, /*input_grad=*/true);
  }
  return loss;
}

void CheckInputGradient(GnnLayer& layer, uint64_t seed) {
  Rng rng(seed);
  Tensor h = Tensor::Normal(5, layer.in_dim(), 0.7f, rng);
  Tensor w_out = Tensor::Normal(2, layer.out_dim(), 0.9f, rng);

  for (Parameter* p : layer.Parameters()) {
    p->ZeroGrad();
  }
  Tensor dh;
  LayerLoss(layer, h, w_out, &dh);
  ASSERT_EQ(dh.rows(), 5);
  ASSERT_EQ(dh.cols(), layer.in_dim());

  const float eps = 1e-3f;
  for (int64_t i = 0; i < h.size(); ++i) {
    Tensor hp = h, hm = h;
    hp.data()[i] += eps;
    hm.data()[i] -= eps;
    const double numeric =
        (LayerLoss(layer, hp, w_out) - LayerLoss(layer, hm, w_out)) / (2.0 * eps);
    EXPECT_NEAR(dh.data()[i], numeric, 2e-2 * (1.0 + std::abs(numeric)))
        << "input grad mismatch at flat index " << i;
  }
}

void CheckWeightGradients(GnnLayer& layer, uint64_t seed) {
  Rng rng(seed);
  Tensor h = Tensor::Normal(5, layer.in_dim(), 0.7f, rng);
  Tensor w_out = Tensor::Normal(2, layer.out_dim(), 0.9f, rng);

  for (Parameter* p : layer.Parameters()) {
    p->ZeroGrad();
  }
  LayerLoss(layer, h, w_out, nullptr);
  std::unique_ptr<LayerContext> ctx;
  LayerView view = MakeView(&h);
  Tensor out = layer.Forward(view, &ctx);
  layer.Backward(*ctx, w_out, /*input_grad=*/true);

  const float eps = 1e-3f;
  for (Parameter* p : layer.Parameters()) {
    // Probe a handful of entries of each parameter.
    const int64_t probes = std::min<int64_t>(p->value.size(), 6);
    for (int64_t k = 0; k < probes; ++k) {
      const int64_t i = k * std::max<int64_t>(1, p->value.size() / probes);
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const double fp = LayerLoss(layer, h, w_out);
      p->value.data()[i] = orig - eps;
      const double fm = LayerLoss(layer, h, w_out);
      p->value.data()[i] = orig;
      const double numeric = (fp - fm) / (2.0 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, 2e-2 * (1.0 + std::abs(numeric)))
          << "weight grad mismatch";
    }
  }
}

TEST(GraphSage, InputGradient) {
  Rng rng(1);
  GraphSageLayer layer(3, 4, Activation::kRelu, rng);
  CheckInputGradient(layer, 10);
}

TEST(GraphSage, WeightGradients) {
  Rng rng(2);
  GraphSageLayer layer(3, 4, Activation::kTanh, rng);
  CheckWeightGradients(layer, 11);
}

TEST(GraphSage, NoActivationGradient) {
  Rng rng(3);
  GraphSageLayer layer(3, 3, Activation::kNone, rng);
  CheckInputGradient(layer, 12);
}

TEST(Gcn, InputGradient) {
  Rng rng(4);
  GcnLayer layer(3, 4, Activation::kRelu, rng);
  CheckInputGradient(layer, 13);
}

TEST(Gcn, WeightGradients) {
  Rng rng(5);
  GcnLayer layer(3, 4, Activation::kNone, rng);
  CheckWeightGradients(layer, 14);
}

TEST(Gat, InputGradient) {
  Rng rng(6);
  GatLayer layer(3, 4, Activation::kNone, rng);
  CheckInputGradient(layer, 15);
}

TEST(Gat, WeightGradients) {
  Rng rng(7);
  GatLayer layer(3, 4, Activation::kTanh, rng);
  CheckWeightGradients(layer, 16);
}

TEST(Gat, AttentionWeightsSumToOnePerSegment) {
  Rng rng(8);
  GatLayer layer(3, 4, Activation::kNone, rng);
  Tensor h = Tensor::Normal(5, 3, 1.0f, rng);
  LayerView view = MakeView(&h);
  std::unique_ptr<LayerContext> ctx;
  Tensor out = layer.Forward(view, &ctx);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 4);
}

TEST(Linear, GradientNumeric) {
  Rng rng(9);
  LinearLayer layer(4, 3, rng);
  Tensor input = Tensor::Normal(6, 4, 1.0f, rng);
  Tensor w_out = Tensor::Normal(6, 3, 1.0f, rng);

  auto loss_fn = [&](const Tensor& in) {
    Tensor out = layer.Forward(in);
    double loss = 0.0;
    for (int64_t i = 0; i < out.size(); ++i) {
      loss += static_cast<double>(out.data()[i]) * w_out.data()[i];
    }
    return loss;
  };
  loss_fn(input);
  Tensor din = layer.Backward(w_out);

  const float eps = 1e-3f;
  for (int64_t i = 0; i < input.size(); ++i) {
    Tensor ip = input, im = input;
    ip.data()[i] += eps;
    im.data()[i] -= eps;
    EXPECT_NEAR(din.data()[i], (loss_fn(ip) - loss_fn(im)) / (2 * eps), 1e-2);
  }
}

// Full-encoder gradient check: d loss / d H0 through two DENSE layers.
TEST(GnnEncoder, EndToEndInputGradient) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  Rng rng(17);
  GnnEncoder encoder(GnnLayerType::kGraphSage, {3, 4, 3}, Activation::kRelu, rng);
  DenseSampler sampler(&index, {3, 3}, EdgeDirection::kBoth, 21);
  std::vector<int64_t> targets = {0, 1, 2};

  DenseBatch proto = sampler.Sample(targets);
  proto.FinalizeForDevice();
  Tensor h0 = Tensor::Normal(proto.num_nodes(), 3, 0.5f, rng);
  Tensor w_out = Tensor::Normal(static_cast<int64_t>(targets.size()), 3, 1.0f, rng);

  auto loss_fn = [&](const Tensor& h) {
    DenseBatch batch = proto;  // copy: Forward consumes the batch
    Tensor out = encoder.Forward(batch, h);
    double loss = 0.0;
    for (int64_t i = 0; i < out.size(); ++i) {
      loss += static_cast<double>(out.data()[i]) * w_out.data()[i];
    }
    return loss;
  };

  loss_fn(h0);
  Tensor dh0 = encoder.Backward(w_out);
  ASSERT_EQ(dh0.rows(), proto.num_nodes());

  const float eps = 1e-2f;
  int64_t checked = 0;
  for (int64_t i = 0; i < h0.size() && checked < 40; i += 7, ++checked) {
    Tensor hp = h0, hm = h0;
    hp.data()[i] += eps;
    hm.data()[i] -= eps;
    const double numeric = (loss_fn(hp) - loss_fn(hm)) / (2.0 * eps);
    EXPECT_NEAR(dh0.data()[i], numeric, 5e-2 * (1.0 + std::abs(numeric)));
  }
}

// The same check over a layer-wise sample lowered by PlanFromBlocks.
TEST(GnnEncoder, LayerwisePlanEndToEndInputGradient) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  Rng rng(18);
  GnnEncoder encoder(GnnLayerType::kGraphSage, {3, 4, 3}, Activation::kRelu, rng);
  LayerwiseSampler sampler(&index, {3, 3}, EdgeDirection::kBoth, 22);
  std::vector<int64_t> targets = {0, 1, 2};
  LayerwiseSample sample = sampler.Sample(targets);
  Tensor h0 = Tensor::Normal(sample.NumInputNodes(), 3, 0.5f, rng);
  Tensor w_out = Tensor::Normal(3, 3, 1.0f, rng);

  auto loss_fn = [&](const Tensor& h) {
    GnnPlan plan = PlanFromBlocks(sample);  // Forward consumes the plan's layers
    Tensor out = encoder.Forward(plan, h);
    double loss = 0.0;
    for (int64_t i = 0; i < out.size(); ++i) {
      loss += static_cast<double>(out.data()[i]) * w_out.data()[i];
    }
    return loss;
  };
  loss_fn(h0);
  Tensor dh0 = encoder.Backward(w_out);
  ASSERT_EQ(dh0.rows(), sample.NumInputNodes());

  const float eps = 1e-2f;
  int64_t checked = 0;
  for (int64_t i = 0; i < h0.size() && checked < 40; i += 5, ++checked) {
    Tensor hp = h0, hm = h0;
    hp.data()[i] += eps;
    hm.data()[i] -= eps;
    const double numeric = (loss_fn(hp) - loss_fn(hm)) / (2.0 * eps);
    EXPECT_NEAR(dh0.data()[i], numeric, 5e-2 * (1.0 + std::abs(numeric)));
  }
}

// Decoder gradient checks: perturb node representations and relation embeddings.
class DecoderGradTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DecoderGradTest, ReprAndRelationGradients) {
  Rng rng(19);
  const int64_t dim = 4;
  auto decoder = MakeDecoder(GetParam(), 3, dim, rng);
  Tensor reprs = Tensor::Normal(8, dim, 0.8f, rng);
  std::vector<int64_t> src = {0, 1, 2};
  std::vector<int64_t> dst = {3, 4, 5};
  std::vector<int32_t> rels = {0, 1, 2};
  std::vector<int64_t> negs = {6, 7};

  auto loss_fn = [&](const Tensor& r) {
    Tensor d(r.rows(), r.cols());
    // Zero the relation grads accumulated by the probe call.
    for (Parameter* p : decoder->Parameters()) {
      p->ZeroGrad();
    }
    return decoder->LossAndGrad(r, src, dst, rels, negs, &d);
  };

  for (Parameter* p : decoder->Parameters()) {
    p->ZeroGrad();
  }
  Tensor d_reprs(reprs.rows(), reprs.cols());
  const float loss = decoder->LossAndGrad(reprs, src, dst, rels, negs, &d_reprs);
  EXPECT_GT(loss, 0.0f);
  Tensor rel_grad = decoder->Parameters()[0]->grad;

  const float eps = 1e-3f;
  for (int64_t i = 0; i < reprs.size(); i += 3) {
    Tensor rp = reprs, rm = reprs;
    rp.data()[i] += eps;
    rm.data()[i] -= eps;
    const double numeric = (loss_fn(rp) - loss_fn(rm)) / (2.0 * eps);
    EXPECT_NEAR(d_reprs.data()[i], numeric, 2e-2 * (1.0 + std::abs(numeric)))
        << GetParam() << " repr grad at " << i;
  }

  Parameter* rel = decoder->Parameters()[0];
  for (int64_t i = 0; i < rel->value.size(); i += 2) {
    const float orig = rel->value.data()[i];
    rel->value.data()[i] = orig + eps;
    const double fp = loss_fn(reprs);
    rel->value.data()[i] = orig - eps;
    const double fm = loss_fn(reprs);
    rel->value.data()[i] = orig;
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(rel_grad.data()[i], numeric, 2e-2 * (1.0 + std::abs(numeric)))
        << GetParam() << " relation grad at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDecoders, DecoderGradTest,
                         ::testing::Values("distmult", "transe", "complex"));

TEST(Decoder, ScoreCandidatesMatchesLossSideScores) {
  Rng rng(20);
  DistMultDecoder decoder(2, 4, rng);
  Tensor reprs = Tensor::Normal(5, 4, 1.0f, rng);
  std::vector<float> scores;
  decoder.ScoreCandidates(reprs, 0, 1, {1, 2, 3}, false, &scores);
  ASSERT_EQ(scores.size(), 3u);
  // DistMult is symmetric: corrupting src with the same candidates gives the same
  // scores when the fixed node is swapped.
  std::vector<float> scores_src;
  decoder.ScoreCandidates(reprs, 0, 1, {1, 2, 3}, true, &scores_src);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(scores[i], scores_src[i], 1e-5);
  }
}

TEST(Decoder, TrainingReducesLoss) {
  // A few Adagrad steps on a tiny fixed batch must reduce the ranking loss.
  Rng rng(21);
  DistMultDecoder decoder(2, 8, rng);
  Tensor reprs = Tensor::Normal(6, 8, 0.5f, rng);
  std::vector<int64_t> src = {0, 1};
  std::vector<int64_t> dst = {2, 3};
  std::vector<int32_t> rels = {0, 1};
  std::vector<int64_t> negs = {4, 5};
  Adagrad opt(0.1f);

  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 30; ++step) {
    for (Parameter* p : decoder.Parameters()) {
      p->ZeroGrad();
    }
    Tensor d(reprs.rows(), reprs.cols());
    const float loss = decoder.LossAndGrad(reprs, src, dst, rels, negs, &d);
    if (step == 0) {
      first = loss;
    }
    last = loss;
    for (int64_t i = 0; i < reprs.size(); ++i) {
      reprs.data()[i] -= 0.5f * d.data()[i];
    }
    for (Parameter* p : decoder.Parameters()) {
      opt.Step(*p);
      p->ZeroGrad();
    }
  }
  EXPECT_LT(last, first * 0.8f);
}

TEST(Optimizer, SgdStep) {
  Parameter p(Tensor::Full(2, 2, 1.0f));
  p.grad.Fill(0.5f);
  Sgd opt(0.1f);
  opt.Step(p);
  EXPECT_FLOAT_EQ(p.value(0, 0), 0.95f);
}

TEST(Optimizer, AdagradShrinksEffectiveStep) {
  Parameter p(Tensor::Full(1, 1, 0.0f));
  Adagrad opt(1.0f);
  p.grad.Fill(1.0f);
  opt.Step(p);
  const float first_step = -p.value(0, 0);
  p.grad.Fill(1.0f);
  opt.Step(p);
  const float second_step = first_step - (-p.value(0, 0) - first_step);
  EXPECT_GT(first_step, 0.0f);
  // Second update is smaller in magnitude than the first.
  EXPECT_LT(std::abs(-p.value(0, 0) - first_step), first_step);
  (void)second_step;
}

TEST(Optimizer, StepAllZerosGrads) {
  Parameter a(Tensor::Full(1, 1, 1.0f)), b(Tensor::Full(1, 1, 2.0f));
  a.grad.Fill(1.0f);
  b.grad.Fill(1.0f);
  Sgd opt(0.1f);
  opt.StepAll({&a, &b});
  EXPECT_FLOAT_EQ(a.grad(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(b.grad(0, 0), 0.0f);
  EXPECT_LT(a.value(0, 0), 1.0f);
}

// Semantic equivalence: a 2-layer GraphSage forward through DENSE (with full fanout)
// must equal a direct reference computation over explicit neighbor lists.
TEST(GnnEncoder, MatchesDirectReferenceOnFullNeighborhoods) {
  // A=0..E=4; incoming: A:{C,D}, B:{C}, C:{E}, D:{C} (the dense_test graph).
  std::vector<Edge> edges = {{2, 0, 0}, {3, 0, 0}, {2, 1, 0}, {4, 2, 0}, {2, 3, 0}};
  Graph g(5, std::move(edges));
  NeighborIndex index(g);

  Rng rng(31);
  const int64_t d = 3;
  GnnEncoder encoder(GnnLayerType::kGraphSage, {d, d, d}, Activation::kRelu, rng);
  DenseSampler sampler(&index, {10, 10}, EdgeDirection::kIncoming, 1);
  DenseBatch batch = sampler.Sample({0, 1});
  batch.FinalizeForDevice();
  Rng frng(7);
  Tensor h_all = Tensor::Normal(5, d, 1.0f, frng);
  Tensor h0 = IndexSelect(h_all, batch.node_ids);
  Tensor out = encoder.Forward(batch, h0);
  ASSERT_EQ(out.rows(), 2);

  // Reference: apply the same two layers node-by-node over the full graph. Layer
  // parameters are read out of the encoder.
  auto params = encoder.Parameters();
  ASSERT_EQ(params.size(), 6u);
  const Tensor &w_self1 = params[0]->value, &w_nbr1 = params[1]->value,
               &b1 = params[2]->value;
  const Tensor &w_self2 = params[3]->value, &w_nbr2 = params[4]->value,
               &b2 = params[5]->value;
  std::vector<std::vector<int64_t>> in_nbrs = {{2, 3}, {2}, {4}, {2}, {}};

  auto layer = [&](const Tensor& h, const Tensor& ws, const Tensor& wn, const Tensor& b,
                   bool relu) {
    Tensor out_ref(5, d);
    for (int64_t v = 0; v < 5; ++v) {
      Tensor self(1, d), mean(1, d);
      std::copy(h.RowPtr(v), h.RowPtr(v) + d, self.data());
      const auto& nb = in_nbrs[static_cast<size_t>(v)];
      for (int64_t u : nb) {
        for (int64_t k = 0; k < d; ++k) {
          mean.data()[k] += h(u, k) / static_cast<float>(nb.size());
        }
      }
      Tensor pre = Matmul(self, ws);
      AddInPlace(pre, Matmul(mean, wn));
      AddBiasRows(pre, b);
      if (relu) {
        pre = Relu(pre);
      }
      std::copy(pre.data(), pre.data() + d, out_ref.RowPtr(v));
    }
    return out_ref;
  };
  Tensor h1 = layer(h_all, w_self1, w_nbr1, b1, /*relu=*/true);
  Tensor h2 = layer(h1, w_self2, w_nbr2, b2, /*relu=*/false);

  for (int64_t t = 0; t < 2; ++t) {  // targets A=0, B=1
    for (int64_t k = 0; k < d; ++k) {
      EXPECT_NEAR(out(t, k), h2(t, k), 1e-4) << "target " << t << " dim " << k;
    }
  }
}

TEST(Encoder, ParameterCounts) {
  Rng rng(22);
  GnnEncoder sage(GnnLayerType::kGraphSage, {8, 8, 8}, Activation::kRelu, rng);
  EXPECT_EQ(sage.Parameters().size(), 6u);  // 2 layers x (w_self, w_nbr, bias)
  GnnEncoder gat(GnnLayerType::kGat, {8, 8}, Activation::kRelu, rng);
  EXPECT_EQ(gat.Parameters().size(), 5u);
  GnnEncoder gcn(GnnLayerType::kGcn, {8, 8}, Activation::kRelu, rng);
  EXPECT_EQ(gcn.Parameters().size(), 2u);
}

// ---------------------------------------------------------------------------
// Bitwise determinism of the parallel compute path through the nn layer: every
// forward output, input gradient, weight gradient, decoder gradient, and sharded
// Adagrad update must be byte-identical for a null context and 1/2/8-worker
// pools (the tensor-level version of this sweep lives in tensor_test.cc).
// ---------------------------------------------------------------------------

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// A view large enough that every chunk grain is exceeded: 250 output segments
// (several row chunks) over ~900 neighbor entries (several edge chunks).
LayerView MakeBigView(const Tensor* h, Rng& rng) {
  LayerView view;
  view.h = h;
  const int64_t num_out = 250;
  const int64_t num_in = h->rows();
  view.self_rows.resize(static_cast<size_t>(num_out));
  for (int64_t s = 0; s < num_out; ++s) {
    view.self_rows[static_cast<size_t>(s)] = static_cast<int64_t>(rng.UniformInt(
        static_cast<uint64_t>(num_in)));
  }
  view.seg_offsets = {0};
  for (int64_t s = 0; s < num_out; ++s) {
    view.seg_offsets.push_back(view.seg_offsets.back() +
                               static_cast<int64_t>(rng.UniformInt(8)));
  }
  view.nbr_rows.resize(static_cast<size_t>(view.seg_offsets.back()));
  for (auto& r : view.nbr_rows) {
    r = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(num_in)));
  }
  return view;
}

// Builds a fresh layer (same seed => same weights), runs forward + backward under
// `ctx`, and returns (out, dh, each parameter grad) for bitwise comparison.
std::vector<Tensor> RunLayerOnce(GnnLayerType type, const ComputeContext* ctx) {
  Rng rng(7777);
  const int64_t in_dim = 24, out_dim = 16;
  std::unique_ptr<GnnLayer> layer;
  switch (type) {
    case GnnLayerType::kGraphSage:
      layer = std::make_unique<GraphSageLayer>(in_dim, out_dim, Activation::kRelu, rng);
      break;
    case GnnLayerType::kGcn:
      layer = std::make_unique<GcnLayer>(in_dim, out_dim, Activation::kRelu, rng);
      break;
    case GnnLayerType::kGat:
      layer = std::make_unique<GatLayer>(in_dim, out_dim, Activation::kRelu, rng);
      break;
  }
  Tensor h = Tensor::Normal(400, in_dim, 0.8f, rng);
  LayerView view = MakeBigView(&h, rng);
  view.compute = ctx;
  std::unique_ptr<LayerContext> saved;
  Tensor out = layer->Forward(view, &saved);
  Tensor grad_out = Tensor::Normal(out.rows(), out.cols(), 0.5f, rng);
  Tensor dh = layer->Backward(*saved, grad_out, /*input_grad=*/true);

  std::vector<Tensor> results = {std::move(out), std::move(dh)};
  for (Parameter* p : layer->Parameters()) {
    results.push_back(p->grad);
  }
  return results;
}

void CheckLayerDeterministicAcrossPools(GnnLayerType type) {
  const std::vector<Tensor> serial = RunLayerOnce(type, nullptr);
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    ComputeContext ctx;
    ctx.pool = &pool;
    const std::vector<Tensor> parallel = RunLayerOnce(type, &ctx);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(parallel[i], serial[i]))
          << "tensor " << i << " diverged with " << workers << " workers";
    }
  }
}

TEST(ParallelDeterminism, GraphSageForwardBackward) {
  CheckLayerDeterministicAcrossPools(GnnLayerType::kGraphSage);
}

TEST(ParallelDeterminism, GcnForwardBackward) {
  CheckLayerDeterministicAcrossPools(GnnLayerType::kGcn);
}

TEST(ParallelDeterminism, GatForwardBackward) {
  CheckLayerDeterministicAcrossPools(GnnLayerType::kGat);
}

// ---------------------------------------------------------------------------
// Fixed inputs: an encoder built with trains_inputs = false skips layer 0's
// input-gradient kernels. Its parameter gradients must be bitwise those of the
// full backward, and its Backward must return an empty tensor.
// ---------------------------------------------------------------------------

// Runs forward + backward through both encoder variants (same seed, so the same
// weights) and compares them. `run` does one forward + backward on the encoder it
// is given and returns Backward's result.
template <typename RunFn>
void CheckFixedInputBackward(GnnLayerType type, int64_t num_inputs, const RunFn& run) {
  const std::vector<int64_t> dims = {6, 5, 4};
  Rng full_rng(91), fixed_rng(91);
  GnnEncoder full(type, dims, Activation::kRelu, full_rng, /*trains_inputs=*/true);
  GnnEncoder fixed(type, dims, Activation::kRelu, fixed_rng, /*trains_inputs=*/false);

  const Tensor dh0 = run(full);
  EXPECT_EQ(dh0.rows(), num_inputs);
  EXPECT_EQ(dh0.cols(), dims.front());
  const Tensor none = run(fixed);
  EXPECT_EQ(none.size(), 0);

  const std::vector<Parameter*> full_params = full.Parameters();
  const std::vector<Parameter*> fixed_params = fixed.Parameters();
  ASSERT_EQ(full_params.size(), fixed_params.size());
  for (size_t i = 0; i < full_params.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(full_params[i]->value, fixed_params[i]->value));
    EXPECT_TRUE(BitwiseEqual(full_params[i]->grad, fixed_params[i]->grad))
        << "parameter " << i << " gradient diverged";
  }
}

class FixedInputBackwardTest : public ::testing::TestWithParam<GnnLayerType> {};

TEST_P(FixedInputBackwardTest, DenseEncoderMatchesFullBackward) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  DenseSampler sampler(&index, {4, 3}, EdgeDirection::kBoth, 23);
  DenseBatch proto = sampler.Sample({0, 1, 2, 3, 4});
  proto.FinalizeForDevice();
  Rng rng(92);
  const Tensor h0 = Tensor::Normal(proto.num_nodes(), 6, 0.5f, rng);
  const Tensor grad = Tensor::Normal(5, 4, 1.0f, rng);
  CheckFixedInputBackward(GetParam(), proto.num_nodes(), [&](GnnEncoder& encoder) {
    GnnPlan plan = PlanFromDense(proto);  // Forward consumes the plan's layers
    encoder.Forward(plan, h0);
    return encoder.Backward(grad);
  });
}

TEST_P(FixedInputBackwardTest, LayerwisePlanMatchesFullBackward) {
  Graph g = Fb15k237Like(0.05);
  NeighborIndex index(g);
  LayerwiseSampler sampler(&index, {4, 3}, EdgeDirection::kBoth, 24);
  const LayerwiseSample sample = sampler.Sample({0, 1, 2, 3, 4});
  Rng rng(93);
  const Tensor h0 = Tensor::Normal(sample.NumInputNodes(), 6, 0.5f, rng);
  const Tensor grad = Tensor::Normal(5, 4, 1.0f, rng);
  CheckFixedInputBackward(GetParam(), sample.NumInputNodes(), [&](GnnEncoder& encoder) {
    GnnPlan plan = PlanFromBlocks(sample);
    encoder.Forward(plan, h0);
    return encoder.Backward(grad);
  });
}

INSTANTIATE_TEST_SUITE_P(AllLayers, FixedInputBackwardTest,
                         ::testing::Values(GnnLayerType::kGraphSage, GnnLayerType::kGcn,
                                           GnnLayerType::kGat),
                         [](const ::testing::TestParamInfo<GnnLayerType>& info) {
                           switch (info.param) {
                             case GnnLayerType::kGraphSage:
                               return "GraphSage";
                             case GnnLayerType::kGcn:
                               return "Gcn";
                             case GnnLayerType::kGat:
                               return "Gat";
                           }
                           return "Unknown";
                         });

TEST(ParallelDeterminism, DecoderLossAndGrad) {
  // 400 positive edges (> kComputeGrainEdges) against 50 shared negatives; the
  // per-chunk gradient partials must fold to identical bits for any pool size.
  auto run = [&](const ComputeContext* ctx) {
    Rng rng(4242);
    DistMultDecoder decoder(5, 24, rng);
    decoder.set_compute(ctx);
    Tensor reprs = Tensor::Normal(300, 24, 0.7f, rng);
    std::vector<int64_t> src(400), dst(400), negs(50);
    std::vector<int32_t> rels(400);
    for (auto& v : src) v = static_cast<int64_t>(rng.UniformInt(300));
    for (auto& v : dst) v = static_cast<int64_t>(rng.UniformInt(300));
    for (auto& v : rels) v = static_cast<int32_t>(rng.UniformInt(5));
    for (auto& v : negs) v = static_cast<int64_t>(rng.UniformInt(300));
    Tensor d_reprs(reprs.rows(), reprs.cols());
    const float loss = decoder.LossAndGrad(reprs, src, dst, rels, negs, &d_reprs);
    std::vector<Tensor> results = {std::move(d_reprs)};
    for (Parameter* p : decoder.Parameters()) {
      results.push_back(p->grad);
    }
    results.push_back(Tensor(1, 1, {loss}));
    return results;
  };
  const std::vector<Tensor> serial = run(nullptr);
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    ComputeContext ctx;
    ctx.pool = &pool;
    const std::vector<Tensor> parallel = run(&ctx);
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(parallel[i], serial[i]))
          << "decoder tensor " << i << " diverged with " << workers << " workers";
    }
  }
}

// Random edges with every aliasing case planted: self-loops, negatives equal to
// some edge's source or destination row, and duplicate negatives. `sd` large
// enough drives some softmax coefficients to exactly zero.
RankingBatch MakeRankingBatch(int64_t batch, int64_t m, int64_t dim, float sd, Rng& rng) {
  const int64_t num_rows = 160;
  RankingBatch b;
  b.reprs = Tensor::Normal(num_rows, dim, sd, rng);
  b.src.resize(static_cast<size_t>(batch));
  b.dst.resize(static_cast<size_t>(batch));
  b.rels.resize(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    const size_t e = static_cast<size_t>(i);
    b.src[e] = static_cast<int64_t>(rng.UniformInt(num_rows));
    b.dst[e] = i % 7 == 3 ? b.src[e] : static_cast<int64_t>(rng.UniformInt(num_rows));
    b.rels[e] = static_cast<int32_t>(rng.UniformInt(4));
  }
  b.negs.resize(static_cast<size_t>(m));
  for (int64_t j = 0; j < m; ++j) {
    const size_t k = static_cast<size_t>(j);
    switch (j % 4) {
      case 0:
        b.negs[k] = b.src[static_cast<size_t>((j * 37) % batch)];
        break;
      case 1:
        b.negs[k] = b.dst[static_cast<size_t>((j * 53) % batch)];
        break;
      case 2:
        b.negs[k] = b.negs[k - 2];
        break;
      default:
        b.negs[k] = static_cast<int64_t>(rng.UniformInt(num_rows));
    }
  }
  return b;
}

// The grid covers every path of the kernel at every native vector width W of 4, 8
// or 16 floats, for every decoder. Its backward runs dim / parts steps in register
// blocks of 4 / parts vectors, then single vectors, then scalar steps:
// - whole blocks: dim 128 and 130 at every W (ComplEx: 64 and 65 steps);
// - a scalar remainder: dim 34 and 130 (ComplEx: 17 and 65 steps);
// - fewer steps than one vector: dim 2 at every W and 4 at W >= 8 (ComplEx: 1
//   and 2 steps at every W, and 8 at W = 16);
// - single vectors: dim 4 at W = 4, 16 at W = 8 and 16, 34 at W = 16.
// The forward's 16-negative lane groups are partial at m = 1, 17, 33 and 50.
TEST(RankingLossKernel, MatchesRowAtATimeReferenceBitwise) {
  ThreadPool pool1(1), pool2(2), pool8(8);
  std::vector<ComputeContext> contexts(4);
  contexts[1].pool = &pool1;
  contexts[2].pool = &pool2;
  contexts[3].pool = &pool8;
  int64_t skipped = 0;  // zero softmax coefficients the reference skipped
  for (const std::string name : {"distmult", "transe", "complex"}) {
    const RefDecoder kind = RefDecoderNamed(name);
    for (int64_t m : {1, 16, 17, 33, 50}) {
      for (int64_t dim : {2, 4, 16, 34, 128, 130}) {
        for (int64_t batch : {100, 400}) {
          for (float sd : {0.5f, 4.0f}) {
            Rng rng(static_cast<uint64_t>(m * 1000 + dim * 10 + batch));
            const RankingBatch b = MakeRankingBatch(batch, m, dim, sd, rng);
            Rng init_rng(7);
            const Tensor d_init = Tensor::Normal(b.reprs.rows(), dim, 0.1f, init_rng);
            const Tensor rel_init = Tensor::Normal(4, dim, 0.1f, init_rng);

            Rng ref_rng(99);
            auto ref_decoder = MakeDecoder(name, 4, dim, ref_rng);
            const Tensor& rel_values = ref_decoder->Parameters()[0]->value;
            Tensor ref_d = d_init;
            Tensor ref_rel = rel_init;
            const float ref_loss =
                RefLossAndGrad(kind, b, rel_values, &ref_d, &ref_rel, &skipped);

            for (size_t c = 0; c < contexts.size(); ++c) {
              Rng rng_k(99);
              auto decoder = MakeDecoder(name, 4, dim, rng_k);
              decoder->set_compute(c == 0 ? nullptr : &contexts[c]);
              Parameter* rel = decoder->Parameters()[0];
              rel->grad = rel_init;
              Tensor d = d_init;
              const float loss =
                  decoder->LossAndGrad(b.reprs, b.src, b.dst, b.rels, b.negs, &d);
              const std::string where = name + " m=" + std::to_string(m) +
                                        " dim=" + std::to_string(dim) +
                                        " batch=" + std::to_string(batch) +
                                        " sd=" + std::to_string(sd) +
                                        " pool=" + std::to_string(c);
              EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(float)), 0) << where;
              EXPECT_TRUE(BitwiseEqual(d, ref_d)) << "d_reprs " << where;
              EXPECT_TRUE(BitwiseEqual(rel->grad, ref_rel)) << "relation grad " << where;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(skipped, 0);
}

TEST(ParallelDeterminism, ShardedSparseAdagrad) {
  // 300 distinct rows (> kComputeGrainRows => several shards); every shard owns its
  // rows, so the Adagrad apply must be bitwise-stable across pool sizes.
  auto run = [&](const ComputeContext* ctx) {
    Rng rng(999);
    InMemoryEmbeddingStore store(400, 16, 0.5f, rng);
    store.set_compute(ctx);
    std::vector<int64_t> nodes(400);
    std::iota(nodes.begin(), nodes.end(), 0);
    rng.Shuffle(nodes);
    nodes.resize(300);
    Tensor grads = Tensor::Normal(300, 16, 0.3f, rng);
    store.ApplyGradients(nodes, grads, 0.1f);
    store.ApplyGradients(nodes, grads, 0.1f);  // second step exercises the state
    Tensor out;
    std::vector<int64_t> all(400);
    std::iota(all.begin(), all.end(), 0);
    store.Gather(all, &out);
    return out;
  };
  const Tensor serial = run(nullptr);
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    ComputeContext ctx;
    ctx.pool = &pool;
    EXPECT_TRUE(BitwiseEqual(run(&ctx), serial))
        << "sparse Adagrad diverged with " << workers << " workers";
  }
}

TEST(ParallelDeterminism, DenseAdagradStep) {
  auto run = [&](const ComputeContext* ctx) {
    Rng rng(31);
    Parameter p(Tensor::Normal(150, 130, 0.5f, rng));  // 19500 elems -> 3 chunks
    p.grad = Tensor::Normal(150, 130, 0.2f, rng);
    Adagrad opt(0.05f);
    opt.set_compute(ctx);
    opt.Step(p);
    opt.Step(p);
    return p.value;
  };
  const Tensor serial = run(nullptr);
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    ComputeContext ctx;
    ctx.pool = &pool;
    EXPECT_TRUE(BitwiseEqual(run(&ctx), serial))
        << "dense Adagrad diverged with " << workers << " workers";
  }
}

}  // namespace
}  // namespace mariusgnn
