// Micro-benchmarks (google-benchmark) for the kernels behind the paper's compute
// claims: contiguous segment reductions (the DENSE dense-kernel path) vs per-edge
// scatter aggregation (the sparse baseline path), gather, one-hop sampling, and
// end-to-end DENSE construction.
//
// After the google-benchmark suites, a custom stage-3 section times every parallel
// compute kernel (matmuls, neighbor aggregation, the ranking loss of every decoder
// at the benchmark's shapes, sharded Adagrad, the GraphSage backward with and
// without the input gradient, one GraphSage layer's forward and backward at the
// nc_disk benchmark's layer-0 shape) serially and on an 8-worker pool, verifies
// the results are BITWISE identical — and, for kernels with a scalar reference,
// equal to it — and prints per-kernel plus aggregate speedups. The exit code gates only
// on determinism — speedup depends on host core count (CI boxes may have 2). One
// row is serial by design: neighbor_index_build, a full-graph NeighborIndex at
// the nc_disk benchmark's scale, checked list for list against the edge-order
// stable sort.
//
// Last, it measures the always-on RV monitors' epoch-time overhead
// (rv_overhead_fraction, the median of paired on/off ratios, with its quartiles)
// on a pipelined link-prediction trainer. It warns above 1%, or calls the
// measurement unresolved when the quartiles are wider than that; neither
// affects the exit code.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/core/link_prediction_trainer.h"
#include "src/data/datasets.h"
#include "src/graph/neighbor_index.h"
#include "src/nn/decoder.h"
#include "src/nn/graphsage.h"
#include "src/nn/optimizer.h"
#include "src/sampler/dense.h"
#include "src/storage/embedding_store.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/compute.h"
#include "src/util/rv_monitor.h"
#include "src/util/timer.h"
#include "src/util/vec.h"
#include "tests/aggregation_reference.h"
#include "tests/ranking_loss_reference.h"
#include "tests/sampling_reference.h"

namespace mariusgnn {
namespace {

constexpr int64_t kDim = 64;

// Contiguous segment sum: the aggregation DENSE enables (Algorithm 3).
void BM_SegmentSumAggregation(benchmark::State& state) {
  const int64_t num_segments = state.range(0);
  const int64_t per_segment = 10;
  Rng rng(1);
  Tensor src = Tensor::Normal(num_segments * per_segment, kDim, 1.0f, rng);
  std::vector<int64_t> offsets;
  for (int64_t s = 0; s <= num_segments; ++s) {
    offsets.push_back(s * per_segment);
  }
  for (auto _ : state) {
    Tensor out = SegmentSum(src, offsets);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * num_segments * per_segment);
}
BENCHMARK(BM_SegmentSumAggregation)->Arg(1000)->Arg(10000);

// Per-edge scatter-add into shuffled destinations: the sparse-kernel analogue.
void BM_ScatterAggregation(benchmark::State& state) {
  const int64_t num_segments = state.range(0);
  const int64_t per_segment = 10;
  Rng rng(1);
  Tensor src = Tensor::Normal(num_segments * per_segment, kDim, 1.0f, rng);
  std::vector<int64_t> dst(static_cast<size_t>(num_segments * per_segment));
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<int64_t>(i) % num_segments;
  }
  rng.Shuffle(dst);
  for (auto _ : state) {
    Tensor out(num_segments, kDim);
    ScatterAddRows(out, dst, src);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * num_segments * per_segment);
}
BENCHMARK(BM_ScatterAggregation)->Arg(1000)->Arg(10000);

void BM_IndexSelect(benchmark::State& state) {
  Rng rng(2);
  Tensor table = Tensor::Normal(100000, kDim, 1.0f, rng);
  std::vector<int64_t> idx(static_cast<size_t>(state.range(0)));
  for (auto& v : idx) {
    v = static_cast<int64_t>(rng.UniformInt(100000));
  }
  for (auto _ : state) {
    Tensor out = IndexSelect(table, idx);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexSelect)->Arg(10000);

void BM_OneHopSample(benchmark::State& state) {
  Graph g = LiveJournalMini(0.25);
  NeighborIndex index(g);
  Rng rng(3);
  PickScratch picks;
  std::vector<int64_t> out;
  int64_t node = 0;
  for (auto _ : state) {
    out.clear();
    index.SampleOneHop(node, 10, EdgeDirection::kBoth, rng, picks, out);
    node = (node + 37) % g.num_nodes();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OneHopSample);

void BM_DenseSample(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Graph g = LiveJournalMini(0.25);
  NeighborIndex index(g);
  std::vector<int64_t> fanouts(static_cast<size_t>(depth), 10);
  const DenseSampler sampler(fanouts, EdgeDirection::kBoth);
  std::vector<int64_t> targets;
  for (int64_t v = 0; v < 128; ++v) {
    targets.push_back(v * 50);
  }
  uint64_t batch = 0;
  for (auto _ : state) {
    DenseBatch b = sampler.SampleSeeded(targets, MixSeed(4, batch++), &index);
    benchmark::DoNotOptimize(b.node_ids.data());
  }
}
BENCHMARK(BM_DenseSample)->Arg(1)->Arg(2)->Arg(3);

void BM_NeighborIndexBuild(benchmark::State& state) {
  Graph g = LiveJournalMini(0.25);
  for (auto _ : state) {
    NeighborIndex index(g);
    benchmark::DoNotOptimize(index.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_NeighborIndexBuild);

// ---------------------------------------------------------------------------
// Stage-3 parallel-kernel section (custom, after the google-benchmark suites).
// ---------------------------------------------------------------------------

struct Stage3Kernel {
  std::string name;
  // Runs the kernel once under `ctx` and returns a tensor capturing its full
  // result (output + gradients flattened), used for the bitwise check.
  std::function<Tensor(const ComputeContext*)> run;
  // Optional scalar definition of the same result; the serial run must equal it
  // bit for bit (the scalar-vs-lane check of a vectorized kernel).
  std::function<Tensor()> reference = nullptr;
};

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) ==
             0;
}

// Representative in-memory-config shapes: ~4k-row batches at dim 64.
std::vector<Stage3Kernel> MakeStage3Kernels() {
  std::vector<Stage3Kernel> kernels;
  Rng rng(11);
  const int64_t rows = 4096, dim = 64;

  auto a = std::make_shared<Tensor>(Tensor::Normal(rows, dim, 1.0f, rng));
  auto w = std::make_shared<Tensor>(Tensor::Normal(dim, dim, 0.5f, rng));
  auto g = std::make_shared<Tensor>(Tensor::Normal(rows, dim, 0.5f, rng));
  // The matmul references: each output a dot product, s = +0.0f then
  // s += l(i, kk) * r(kk, j) for kk ascending, over the factors as written.
  auto dot_reference = [](int64_t m, int64_t k, int64_t n, const auto& l, const auto& r) {
    Tensor c(m, n);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float s = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) {
          s += l(i, kk) * r(kk, j);
        }
        c(i, j) = s;
      }
    }
    return c;
  };
  kernels.push_back({"matmul_fwd",
                     [a, w](const ComputeContext* ctx) { return Matmul(*a, *w, ctx); },
                     [a, w, dot_reference] {
                       return dot_reference(
                           a->rows(), a->cols(), w->cols(),
                           [&](int64_t i, int64_t kk) { return (*a)(i, kk); },
                           [&](int64_t kk, int64_t j) { return (*w)(kk, j); });
                     }});
  kernels.push_back({"matmul_dW (A^T g)",
                     [a, g](const ComputeContext* ctx) { return MatmulTransA(*a, *g, ctx); },
                     [a, g, dot_reference] {
                       return dot_reference(
                           a->cols(), a->rows(), g->cols(),
                           [&](int64_t i, int64_t kk) { return (*a)(kk, i); },
                           [&](int64_t kk, int64_t j) { return (*g)(kk, j); });
                     }});
  kernels.push_back({"matmul_dX (g W^T)",
                     [g, w](const ComputeContext* ctx) { return MatmulTransB(*g, *w, ctx); },
                     [g, w, dot_reference] {
                       return dot_reference(
                           g->rows(), g->cols(), w->rows(),
                           [&](int64_t i, int64_t kk) { return (*g)(i, kk); },
                           [&](int64_t kk, int64_t j) { return (*w)(j, kk); });
                     }});

  // GraphSage's neighbour mean at the graphsage_backward shape below: 4096 segments
  // of 10 positions over a 45,056-row input, indices with duplicates. The
  // references are the scalar gather-then-reduce and broadcast-then-fold.
  const int64_t segs = 4096, per_seg = 10, agg_in = segs + segs * per_seg;
  auto agg_h = std::make_shared<Tensor>(Tensor::Normal(agg_in, dim, 1.0f, rng));
  auto agg_rows = std::make_shared<std::vector<int64_t>>(static_cast<size_t>(segs * per_seg));
  for (auto& v : *agg_rows) v = static_cast<int64_t>(rng.UniformInt(static_cast<int>(agg_in)));
  auto offsets = std::make_shared<std::vector<int64_t>>();
  for (int64_t s = 0; s <= segs; ++s) {
    offsets->push_back(s * per_seg);
  }
  auto seg_grad = std::make_shared<Tensor>(Tensor::Normal(segs, dim, 1.0f, rng));
  kernels.push_back({"neighbor_agg_fwd",
                     [agg_h, agg_rows, offsets](const ComputeContext* ctx) {
                       return GatherSegmentMean(*agg_h, *agg_rows, *offsets, ctx);
                     },
                     [agg_h, agg_rows, offsets] {
                       return RefGatherSegmentReduce(*agg_h, *agg_rows, *offsets, true);
                     }});
  kernels.push_back({"neighbor_agg_bwd",
                     [seg_grad, agg_rows, offsets, agg_in, dim](const ComputeContext* ctx) {
                       Tensor dh(agg_in, dim);
                       GatherSegmentMeanBackward(dh, *agg_rows, *offsets, *seg_grad, ctx);
                       return dh;
                     },
                     [seg_grad, agg_rows, offsets, agg_in, dim] {
                       Tensor dh(agg_in, dim);
                       RefGatherSegmentReduceBackward(dh, *agg_rows, *offsets, *seg_grad, true);
                       return dh;
                     }});

  // The same backward at the lp_mem benchmark's measured shape: 1100 segments of
  // 14 or 15 positions (16,430 in all) into a 1446 x 32 input gradient. The rows
  // above allocate and zero a 45,056 x 64 destination inside every timed call;
  // this one is small enough that the call times the fold, not page faults.
  {
    Rng lrng(43);
    const int64_t lp_in = 1446, lp_dim = 32, lp_segs = 1100, lp_positions = 16430;
    auto lp_rows = std::make_shared<std::vector<int64_t>>(static_cast<size_t>(lp_positions));
    for (auto& v : *lp_rows) v = static_cast<int64_t>(lrng.UniformInt(static_cast<int>(lp_in)));
    auto lp_offsets = std::make_shared<std::vector<int64_t>>(1, 0);
    for (int64_t s = 0; s < lp_segs; ++s) {
      lp_offsets->push_back(lp_offsets->back() + lp_positions / lp_segs +
                            (s < lp_positions % lp_segs ? 1 : 0));
    }
    MG_CHECK(lp_offsets->back() == lp_positions);
    auto lp_grad = std::make_shared<Tensor>(Tensor::Normal(lp_segs, lp_dim, 1.0f, lrng));
    kernels.push_back({"neighbor_agg_bwd (lp_mem shape)",
                       [lp_grad, lp_rows, lp_offsets, lp_in, lp_dim](const ComputeContext* ctx) {
                         Tensor dh(lp_in, lp_dim);
                         GatherSegmentMeanBackward(dh, *lp_rows, *lp_offsets, *lp_grad, ctx);
                         return dh;
                       },
                       [lp_grad, lp_rows, lp_offsets, lp_in, lp_dim] {
                         Tensor dh(lp_in, lp_dim);
                         RefGatherSegmentReduceBackward(dh, *lp_rows, *lp_offsets, *lp_grad,
                                                        true);
                         return dh;
                       }});
  }

  // Ranking loss and gradients of one decoder: `edges` positives against `negatives`
  // shared negatives over 3000 rows. The result packs d_reprs, the relation
  // gradient and the loss, so the bitwise check covers all three; the reference is
  // the row-at-a-time scalar loop the lane kernel must equal bit for bit. With
  // `twice`, the decoder first runs the loss on another batch, the first 3/8 of the
  // edges reversed, so the checked call runs on the chunk scratch that call left
  // (the relation gradient accumulates both calls).
  auto add_ranking_loss = [&kernels](const std::string& name, const std::string& decoder,
                                     int64_t edges, int64_t negatives, int64_t ldim,
                                     bool twice) {
    Rng drng(13);
    auto b = std::make_shared<RankingBatch>();
    b->reprs = Tensor::Normal(3000, ldim, 0.5f, drng);
    b->src.resize(static_cast<size_t>(edges));
    b->dst.resize(static_cast<size_t>(edges));
    b->rels.assign(static_cast<size_t>(edges), 0);
    b->negs.resize(static_cast<size_t>(negatives));
    for (auto& v : b->src) v = static_cast<int64_t>(drng.UniformInt(3000));
    for (auto& v : b->dst) v = static_cast<int64_t>(drng.UniformInt(3000));
    for (auto& v : b->negs) v = static_cast<int64_t>(drng.UniformInt(3000));
    auto first = std::make_shared<RankingBatch>();
    if (twice) {
      const size_t prefix = static_cast<size_t>(edges * 3 / 8);
      first->reprs = b->reprs;
      first->src.assign(b->dst.begin(), b->dst.begin() + prefix);
      first->dst.assign(b->src.begin(), b->src.begin() + prefix);
      first->rels.assign(prefix, 0);
      first->negs = b->negs;
    }
    auto pack = [b, ldim](const Tensor& d_reprs, const Tensor& rel_grad, float loss) {
      Tensor out(b->reprs.rows() + 2, ldim);
      std::copy(d_reprs.data(), d_reprs.data() + d_reprs.size(), out.data());
      std::copy(rel_grad.data(), rel_grad.data() + ldim, out.RowPtr(b->reprs.rows()));
      out.RowPtr(b->reprs.rows() + 1)[0] = loss;
      return out;
    };
    kernels.push_back(
        {name,
         [b, first, twice, decoder, ldim, pack](const ComputeContext* ctx) {
           Rng wrng(17);
           std::unique_ptr<Decoder> dec = MakeDecoder(decoder, 1, ldim, wrng);
           dec->set_compute(ctx);
           if (twice) {
             Tensor d_first(first->reprs.rows(), first->reprs.cols());
             dec->LossAndGrad(first->reprs, first->src, first->dst, first->rels, first->negs,
                              &d_first);
           }
           Tensor d_reprs(b->reprs.rows(), b->reprs.cols());
           const float loss = dec->LossAndGrad(b->reprs, b->src, b->dst, b->rels, b->negs,
                                               &d_reprs);
           return pack(d_reprs, dec->Parameters()[0]->grad, loss);
         },
         [b, first, twice, decoder, ldim, pack] {
           Rng wrng(17);
           std::unique_ptr<Decoder> dec = MakeDecoder(decoder, 1, ldim, wrng);
           const Tensor& rel_values = dec->Parameters()[0]->value;
           Tensor rel_grad(1, ldim);
           int64_t skipped = 0;
           if (twice) {
             Tensor d_first(first->reprs.rows(), first->reprs.cols());
             RefLossAndGrad(RefDecoderNamed(decoder), *first, rel_values, &d_first, &rel_grad,
                            &skipped);
           }
           Tensor d_reprs(b->reprs.rows(), b->reprs.cols());
           const float loss = RefLossAndGrad(RefDecoderNamed(decoder), *b, rel_values,
                                             &d_reprs, &rel_grad, &skipped);
           return pack(d_reprs, rel_grad, loss);
         }});
  };
  add_ranking_loss("ranking_loss+grad", "distmult", 2048, 128, dim, false);
  // The benchmark's shapes: dim 128 with 16 negatives (kge_disk) and dim 32 with 50
  // (lp_mem), for every decoder, once on a fresh decoder and once after a call.
  for (const char* decoder : {"distmult", "transe", "complex"}) {
    for (const bool twice : {false, true}) {
      const std::string prefix = std::string(twice ? "loss_twice_" : "loss_") + decoder;
      add_ranking_loss(prefix + "_d128_m16", decoder, 1024, 16, 128, twice);
      add_ranking_loss(prefix + "_d32_m50", decoder, 1024, 50, 32, twice);
    }
  }

  // The ReLU backward over a ReLU output (about half of it zero, in a random
  // sign pattern) and two dense Adagrad steps, against their scalar loops: a
  // return to scalar code shows in the serial column.
  {
    auto relu_out = std::make_shared<Tensor>(Relu(*a));
    kernels.push_back({"relu_backward",
                       [relu_out, g](const ComputeContext* ctx) {
                         return ReluBackward(*relu_out, *g, ctx);
                       },
                       [relu_out, g] {
                         Tensor out(g->rows(), g->cols());
                         for (int64_t i = 0; i < out.size(); ++i) {
                           out.data()[i] = relu_out->data()[i] > 0.0f ? g->data()[i] : 0.0f;
                         }
                         return out;
                       }});
    const float lr = 0.05f, eps = 1e-10f;
    kernels.push_back({"dense_adagrad",
                       [a, g, lr, eps](const ComputeContext* ctx) {
                         Parameter p(*a);
                         p.grad = *g;
                         Adagrad opt(lr, eps);
                         opt.set_compute(ctx);
                         opt.Step(p);
                         opt.Step(p);
                         return p.value;
                       },
                       [a, g, lr, eps] {
                         Tensor value = *a;
                         Tensor state(a->rows(), a->cols());
                         for (int step = 0; step < 2; ++step) {
                           for (int64_t i = 0; i < value.size(); ++i) {
                             const float gi = g->data()[i];
                             state.data()[i] += gi * gi;
                             value.data()[i] -= lr * gi / (std::sqrt(state.data()[i]) + eps);
                           }
                         }
                         return value;
                       }});
  }

  // Sharded sparse Adagrad over 4096 distinct rows.
  {
    auto grads = std::make_shared<Tensor>(Tensor::Normal(rows, dim, 0.3f, rng));
    kernels.push_back({"sparse_adagrad", [grads, rows, dim](const ComputeContext* ctx) {
                         Rng srng(19);
                         InMemoryEmbeddingStore store(rows, dim, 0.5f, srng);
                         store.set_compute(ctx);
                         std::vector<int64_t> nodes(static_cast<size_t>(rows));
                         std::iota(nodes.begin(), nodes.end(), 0);
                         store.ApplyGradients(nodes, *grads, 0.1f);
                         Tensor out;
                         store.Gather(nodes, &out);
                         return out;
                       }});
  }

  // Scatter-reduce with heavy duplicate indices: 40960 gradient rows into 4096
  // destinations — the write pattern of every GNN layer's input-gradient collect.
  {
    Rng srng(23);
    const int64_t scatter_n = 40960;
    auto idx = std::make_shared<std::vector<int64_t>>(static_cast<size_t>(scatter_n));
    for (auto& v : *idx) v = static_cast<int64_t>(srng.UniformInt(static_cast<int>(rows)));
    auto ssrc = std::make_shared<Tensor>(Tensor::Normal(scatter_n, dim, 0.5f, srng));
    kernels.push_back({"scatter_add_rows", [idx, ssrc, rows, dim](const ComputeContext* ctx) {
                         Tensor dst(rows, dim);
                         ScatterAddRows(dst, *idx, *ssrc, ctx);
                         return dst;
                       }});
  }

  // Full GraphSage backward: MatMulTransA/TransB, the self gradient added into d h's
  // self-row range and the neighbour mean's pull backward, after one forward.
  {
    Rng grng(29);
    const int64_t num_out = 4096, per_nbr = 10;
    const int64_t num_in = num_out + num_out * per_nbr;
    auto h = std::make_shared<Tensor>(Tensor::Normal(num_in, dim, 0.5f, grng));
    auto nbr_rows =
        std::make_shared<std::vector<int64_t>>(static_cast<size_t>(num_out * per_nbr));
    for (auto& v : *nbr_rows) {
      v = static_cast<int64_t>(grng.UniformInt(static_cast<int>(num_in)));
    }
    auto offsets = std::make_shared<std::vector<int64_t>>();
    for (int64_t s = 0; s <= num_out; ++s) {
      offsets->push_back(s * per_nbr);
    }
    auto grad = std::make_shared<Tensor>(Tensor::Normal(num_out, dim, 0.5f, grng));
    // One forward + backward; returns d(h) (empty without `input_grad`) followed by
    // the parameter gradients.
    auto backward = [h, nbr_rows, offsets, grad, dim](const ComputeContext* ctx,
                                                      bool input_grad) {
      Rng wrng(31);
      GraphSageLayer layer(dim, dim, Activation::kRelu, wrng);
      LayerView view;
      view.h = h.get();
      view.compute = ctx;
      view.self_begin = 0;
      view.nbr_rows = *nbr_rows;
      view.seg_offsets = *offsets;
      std::unique_ptr<LayerContext> layer_ctx;
      const Tensor fwd = layer.Forward(view, &layer_ctx);
      std::vector<Tensor> out = {layer.Backward(*layer_ctx, fwd, *grad, input_grad)};
      for (Parameter* p : layer.Parameters()) {
        out.push_back(p->grad);
      }
      return out;
    };
    // The parameter gradients stacked into one tensor (all are dim wide).
    auto param_grads = [dim](const std::vector<Tensor>& out) {
      int64_t rows = 0;
      for (size_t i = 1; i < out.size(); ++i) {
        rows += out[i].rows();
      }
      Tensor packed(rows, dim);
      float* dst = packed.data();
      for (size_t i = 1; i < out.size(); ++i) {
        dst = std::copy(out[i].data(), out[i].data() + out[i].size(), dst);
      }
      return packed;
    };
    kernels.push_back({"graphsage_backward", [backward](const ComputeContext* ctx) {
                         return backward(ctx, true)[0];
                       }});
    // Fixed inputs (node classification's first layer): no input-gradient kernels,
    // and the parameter gradients must be those of the full backward.
    kernels.push_back({"graphsage_backward (fixed inputs)",
                       [backward, param_grads](const ComputeContext* ctx) {
                         const std::vector<Tensor> out = backward(ctx, false);
                         MG_CHECK(out[0].size() == 0);
                         return param_grads(out);
                       },
                       [backward, param_grads] { return param_grads(backward(nullptr, true)); }});
  }

  // One GraphSage layer, forward and backward with the input gradient, at the
  // nc_disk benchmark's measured layer-0 shape: 3729 input rows, 3693 outputs
  // whose own rows start at row 36, 18,532 neighbour positions, 64 -> 64. The
  // result packs the output, d h and the parameter gradients; the reference is
  // the composition the layer replaced (IndexSelect of the self rows, Matmul +
  // AddInPlace, ScatterAddRows of the self gradient), bit for bit.
  {
    Rng lrng(37);
    const int64_t num_in = 3729, self_begin = 36, num_out = 3693, positions = 18532;
    auto h = std::make_shared<Tensor>(Tensor::Normal(num_in, dim, 0.5f, lrng));
    auto nbr_rows = std::make_shared<std::vector<int64_t>>(static_cast<size_t>(positions));
    for (auto& v : *nbr_rows) {
      v = static_cast<int64_t>(lrng.UniformInt(static_cast<int>(num_in)));
    }
    // Segments of 5 positions, the first positions % num_out of them 6.
    auto offsets = std::make_shared<std::vector<int64_t>>(1, 0);
    for (int64_t s = 0; s < num_out; ++s) {
      offsets->push_back(offsets->back() + positions / num_out +
                         (s < positions % num_out ? 1 : 0));
    }
    MG_CHECK(offsets->back() == positions);
    auto grad = std::make_shared<Tensor>(Tensor::Normal(num_out, dim, 0.5f, lrng));
    auto pack = [dim](const std::vector<Tensor>& parts) {
      int64_t rows = 0;
      for (const Tensor& t : parts) {
        rows += t.size() / dim;
      }
      Tensor packed(rows, dim);
      float* dst = packed.data();
      for (const Tensor& t : parts) {
        dst = std::copy(t.data(), t.data() + t.size(), dst);
      }
      return packed;
    };
    kernels.push_back(
        {"graphsage_layer (nc_disk layer 0)",
         [h, nbr_rows, offsets, grad, dim, self_begin, pack](const ComputeContext* ctx) {
           Rng wrng(41);
           GraphSageLayer layer(dim, dim, Activation::kRelu, wrng);
           LayerView view;
           view.h = h.get();
           view.compute = ctx;
           view.self_begin = self_begin;
           view.nbr_rows = *nbr_rows;
           view.seg_offsets = *offsets;
           std::unique_ptr<LayerContext> layer_ctx;
           std::vector<Tensor> parts = {layer.Forward(view, &layer_ctx)};
           parts.push_back(layer.Backward(*layer_ctx, parts[0], *grad, /*input_grad=*/true));
           for (Parameter* p : layer.Parameters()) {
             parts.push_back(p->grad);
           }
           return pack(parts);
         },
         [h, nbr_rows, offsets, grad, dim, self_begin, num_out, pack] {
           Rng wrng(41);
           GraphSageLayer layer(dim, dim, Activation::kRelu, wrng);
           RefLayerInputs in;
           in.h = h.get();
           in.self_rows.resize(static_cast<size_t>(num_out));
           std::iota(in.self_rows.begin(), in.self_rows.end(), self_begin);
           in.nbr_rows = *nbr_rows;
           in.seg_offsets = *offsets;
           for (Parameter* p : layer.Parameters()) {
             in.params.push_back(&p->value);
           }
           in.act = Activation::kRelu;
           in.grad_out = grad.get();
           RefLayerRun run = RefGraphSageRun(in);
           std::vector<Tensor> parts = {std::move(run.out), std::move(run.dh)};
           for (Tensor& g : run.grads) {
             parts.push_back(std::move(g));
           }
           return pack(parts);
         }});
  }

  // The full-graph neighbor index at the nc_disk benchmark's scale (PapersMini at
  // 0.5). Its result is every list read back, out lists then in lists, each node's
  // degree followed by its ids, one int64 per float pair; so the row times the
  // build plus one read of the index.
  {
    auto graph = std::make_shared<const Graph>(PapersMini(0.5));
    auto pack = [](const std::vector<int64_t>& words) {
      Tensor t(static_cast<int64_t>(words.size()), 2);
      std::memcpy(t.data(), words.data(), words.size() * sizeof(int64_t));
      return t;
    };
    kernels.push_back(
        {"neighbor_index_build",
         [graph, pack](const ComputeContext*) {
           const NeighborIndex index(*graph);
           std::vector<int64_t> words;
           words.reserve(static_cast<size_t>(2 * (graph->num_nodes() + graph->num_edges())));
           Rng unused(0);
           PickScratch picks;
           for (EdgeDirection dir : {EdgeDirection::kOutgoing, EdgeDirection::kIncoming}) {
             for (int64_t v = 0; v < graph->num_nodes(); ++v) {
               const size_t at = words.size();
               words.push_back(0);
               const int64_t degree = index.SampleOneHop(v, -1, dir, unused, picks, words);
               words[at] = degree;
             }
           }
           return pack(words);
         },
         [graph, pack] {
           std::vector<int64_t> words;
           for (bool outgoing : {true, false}) {
             for (const std::vector<int64_t>& list :
                  RefNeighborLists(graph->num_nodes(), graph->edges(), outgoing)) {
               words.push_back(static_cast<int64_t>(list.size()));
               words.insert(words.end(), list.begin(), list.end());
             }
           }
           return pack(words);
         }});
  }
  return kernels;
}

double BestOfSeconds(const std::function<void()>& fn, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

struct Stage3Result {
  std::string name;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
};

// Monitors-on over monitors-off epoch time, minus 1: the median and quartiles
// of the per-pair ratios.
struct RvOverhead {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  int pairs = 0;
};

// Machine-readable mirror of the stage-3 table plus the RV overhead.
// `results` holds real kernels only; the aggregate goes in a top-level "total"
// object so consumers iterating kernels[] never see a pseudo-kernel.
void WriteStage3Json(const std::string& path, const std::vector<Stage3Result>& results,
                     const Stage3Result& total, int workers, bool all_identical,
                     const RvOverhead& rv) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("WARN: could not open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n  \"workers\": %d,\n", workers);
  std::fprintf(f, "  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"all_bitwise_identical\": %s,\n", all_identical ? "true" : "false");
  std::fprintf(f,
               "  \"rv_overhead_fraction\": %.6f,\n  \"rv_overhead_q1\": %.6f,\n"
               "  \"rv_overhead_q3\": %.6f,\n  \"rv_overhead_pairs\": %d,\n",
               rv.median, rv.q1, rv.q3, rv.pairs);
  std::fprintf(f,
               "  \"total\": {\"serial_ms\": %.6f, \"parallel_ms\": %.6f, "
               "\"speedup\": %.4f},\n",
               total.serial_ms, total.parallel_ms,
               total.parallel_ms > 0.0 ? total.serial_ms / total.parallel_ms : 0.0);
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Stage3Result& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"serial_ms\": %.6f, \"parallel_ms\": %.6f, "
                 "\"speedup\": %.4f, \"bitwise_identical\": %s}%s\n",
                 r.name.c_str(), r.serial_ms, r.parallel_ms,
                 r.parallel_ms > 0.0 ? r.serial_ms / r.parallel_ms : 0.0,
                 r.identical ? "true" : "false", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place).
double Quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The always-on RV monitors' cost on a pipelined link-prediction trainer
// (4 sampling workers), from paired arms: each pair trains a fresh trainer with
// the monitors on and one with them off, back to back, and flips which arm goes
// first every pair, so warm-up and slow host drift land on both arms alike. An
// arm times two epochs after a discarded first one (which also builds the
// full-graph index). The quartiles of the pair ratios say whether this host can
// resolve the 1% target at all.
RvOverhead MeasureRvOverhead() {
  constexpr int kPairs = 10;
  const Graph graph = Fb15k237Like(0.3);
  TrainingConfig config;
  config.fanouts = {10};
  config.dims = {16, 16};
  config.batch_size = 500;
  config.num_negatives = 64;
  config.pipeline.workers = 4;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double seconds[2] = {0.0, 0.0};  // [off, on]
    for (const bool on_first : {true, false}) {
      const bool on = on_first == (pair % 2 == 0);
      RvRuntime::Global().set_enabled(on);
      LinkPredictionTrainer trainer(&graph, config);
      trainer.TrainEpoch();
      for (int e = 0; e < 2; ++e) {
        seconds[on] += trainer.TrainEpoch().wall_seconds;
      }
    }
    ratios.push_back(seconds[1] / seconds[0] - 1.0);
  }
  RvRuntime::Global().set_enabled(true);
  RvOverhead overhead;
  overhead.pairs = kPairs;
  overhead.median = Quantile(ratios, 0.5);
  overhead.q1 = Quantile(ratios, 0.25);
  overhead.q3 = Quantile(ratios, 0.75);
  return overhead;
}

// Times each stage-3 kernel serial vs 8-worker pool, checks bitwise equality, and
// prints per-kernel + aggregate speedup, then measures the RV overhead. Returns
// false on any determinism break.
bool RunStage3Section(const std::string& json_path) {
  constexpr int kWorkers = 8;
  constexpr int kReps = 5;
  std::printf("\n=== stage-3 parallel kernels: serial vs %d-worker pool ===\n", kWorkers);
  std::printf("(speedup is host-dependent — this box has %u hardware threads)\n",
              std::thread::hardware_concurrency());
  std::printf("target ISA %s, lane kernels %d floats wide\n", MGNN_TARGET_ISA,
              static_cast<int>(kW));
  std::printf("%-34s %12s %12s %9s  %s\n", "kernel", "serial_ms", "parallel_ms",
              "speedup", "bitwise");

  ThreadPool pool(kWorkers);
  ComputeContext ctx;
  ctx.pool = &pool;

  bool all_identical = true;
  double serial_total = 0.0, parallel_total = 0.0;
  std::vector<Stage3Result> results;
  for (const Stage3Kernel& kernel : MakeStage3Kernels()) {
    const Tensor serial_out = kernel.run(nullptr);
    const bool identical = BitwiseEqual(serial_out, kernel.run(&ctx)) &&
                           (!kernel.reference || BitwiseEqual(serial_out, kernel.reference()));
    all_identical = all_identical && identical;

    const double serial_s = BestOfSeconds([&] { kernel.run(nullptr); }, kReps);
    const double parallel_s = BestOfSeconds([&] { kernel.run(&ctx); }, kReps);
    serial_total += serial_s;
    parallel_total += parallel_s;
    std::printf("%-34s %12.3f %12.3f %8.2fx  %s\n", kernel.name.c_str(), serial_s * 1e3,
                parallel_s * 1e3, serial_s / parallel_s,
                identical ? "IDENTICAL" : "DIVERGED (BUG)");
    results.push_back({kernel.name, serial_s * 1e3, parallel_s * 1e3, identical});
  }
  std::printf("%-34s %12.3f %12.3f %8.2fx  aggregate\n", "TOTAL", serial_total * 1e3,
              parallel_total * 1e3, serial_total / parallel_total);

  constexpr double kRvTarget = 0.01;
  const RvOverhead rv = MeasureRvOverhead();
  std::printf("\nrv monitor overhead: median %+.3f%% [q1 %+.3f%%, q3 %+.3f%%] epoch time "
              "over %d pairs (target < 1%%)\n",
              100.0 * rv.median, 100.0 * rv.q1, 100.0 * rv.q3, rv.pairs);
  // Neither verdict affects the exit code.
  if (rv.q3 - rv.q1 > kRvTarget) {
    std::printf("rv monitor overhead: unresolved (q1..q3 wider than the 1%% target)\n");
  } else if (rv.median > kRvTarget) {
    std::printf("WARN: rv monitor overhead above 1%% on this host\n");
  }
  if (!json_path.empty()) {
    const Stage3Result total{"TOTAL", serial_total * 1e3, parallel_total * 1e3,
                             all_identical};
    WriteStage3Json(json_path, results, total, kWorkers, all_identical, rv);
  }
  if (!all_identical) {
    std::printf("FAIL: a kernel diverged from its serial or scalar-reference bits\n");
  }
  return all_identical;
}

}  // namespace
}  // namespace mariusgnn

int main(int argc, char** argv) {
  // Strip our own --json=PATH flag before google-benchmark sees the arguments.
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Exit code gates on kernel determinism only (speedups are host-dependent).
  return mariusgnn::RunStage3Section(json_path) ? 0 : 1;
}
