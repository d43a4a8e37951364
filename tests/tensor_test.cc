// Tests for the tensor substrate: shapes, kernels, and analytic-vs-numeric gradients
// for the segment and softmax operations the GNN layers depend on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/threadpool.h"
#include "src/util/vec.h"
#include "tests/aggregation_reference.h"

namespace mariusgnn {
namespace {

Tensor MakeTensor(int64_t rows, int64_t cols, std::vector<float> v) {
  return Tensor(rows, cols, std::move(v));
}

TEST(Tensor, ZerosAndFill) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_DOUBLE_EQ(t.Sum(), 0.0);
  t.Fill(2.0f);
  EXPECT_DOUBLE_EQ(t.Sum(), 24.0);
}

TEST(Tensor, GlorotUniformBounds) {
  Rng rng(1);
  Tensor t = Tensor::GlorotUniform(100, 50, rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::abs(t.data()[i]), bound);
  }
}

TEST(Ops, MatmulMatchesManual) {
  Tensor a = MakeTensor(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = MakeTensor(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = Matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(Ops, MatmulTransAConsistent) {
  Rng rng(2);
  Tensor a = Tensor::Normal(5, 3, 1.0f, rng);
  Tensor b = Tensor::Normal(5, 4, 1.0f, rng);
  Tensor c = MatmulTransA(a, b);  // (3x5)*(5x4)
  // Verify against explicit transpose + matmul.
  Tensor at(3, 5);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      at(j, i) = a(i, j);
    }
  }
  Tensor ref = Matmul(at, b);
  for (int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4);
  }
}

TEST(Ops, MatmulTransBConsistent) {
  Rng rng(3);
  Tensor a = Tensor::Normal(4, 3, 1.0f, rng);
  Tensor b = Tensor::Normal(6, 3, 1.0f, rng);
  Tensor c = MatmulTransB(a, b);  // (4x3)*(3x6)
  Tensor bt(3, 6);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      bt(j, i) = b(i, j);
    }
  }
  Tensor ref = Matmul(a, bt);
  for (int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4);
  }
}

Tensor Transposed(const Tensor& t) {
  Tensor out(t.cols(), t.rows());
  for (int64_t i = 0; i < t.rows(); ++i) {
    for (int64_t j = 0; j < t.cols(); ++j) {
      out(j, i) = t(i, j);
    }
  }
  return out;
}

// Every matmul must give every output the bits of a dot product over the factors as
// written, L = A or A^T and R = B or B^T: s = +0.0f, then s += L(i, kk) * R(kk, j)
// for kk ascending. The shapes reach every path of the shared kernel at 4-, 8- and
// 16-float vectors: whole register tiles, single-vector tiles, scalar columns, an
// odd last row, and k = 300, more than one kk panel. Signed zeros in L meet
// infinities and NaN in R, in every fifth column, so a kernel that skipped zero L
// values would turn 0 * inf = NaN into a finite result. The NaN in R is the one the
// hardware makes for 0 * inf, so every NaN in play has the same bits whichever
// operand an addition propagates.
TEST(Ops, MatmulsMatchDotProductBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  volatile float zero = 0.0f;
  const float nan = zero * inf;
  struct Kernel {
    const char* name;
    std::function<Tensor(const Tensor& l, const Tensor& r, const ComputeContext* ctx)> run;
  };
  const std::vector<Kernel> kernels = {
      {"Matmul", [](const Tensor& l, const Tensor& r,
                    const ComputeContext* ctx) { return Matmul(l, r, ctx); }},
      {"MatmulTransA", [](const Tensor& l, const Tensor& r,
                          const ComputeContext* ctx) { return MatmulTransA(Transposed(l), r, ctx); }},
      {"MatmulTransB", [](const Tensor& l, const Tensor& r,
                          const ComputeContext* ctx) { return MatmulTransB(l, Transposed(r), ctx); }},
  };
  ThreadPool pool(2);
  ComputeContext pool_ctx;
  pool_ctx.pool = &pool;
  Rng rng(31);
  for (int64_t m : {0, 1, 3, 130}) {
    for (int64_t k : {1, 5, 64, 300}) {
      for (int64_t n : {1, 3, 7, 9, 17, 31, 33, 64, 65}) {
        Tensor l = Tensor::Normal(m, k, 1.0f, rng);
        for (int64_t i = 0; i < m; ++i) {
          l(i, 0) = i % 2 == 0 ? 0.0f : -0.0f;  // every row meets R's row 0
          if (k > 2 && i % 3 == 0) {
            l(i, k / 2) = -0.0f;
          }
        }
        Tensor r = Tensor::Normal(k, n, 1.0f, rng);
        for (int64_t j = 0; j < n; ++j) {
          if (j % 5 == 1) {
            r(0, j) = inf;
          } else if (j % 5 == 2) {
            r(0, j) = -inf;
            r(k - 1, j) = nan;
          }
        }
        Tensor ref(m, n);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float s = 0.0f;
            for (int64_t kk = 0; kk < k; ++kk) {
              s += l(i, kk) * r(kk, j);
            }
            ref(i, j) = s;
          }
        }
        for (const Kernel& kernel : kernels) {
          for (const ComputeContext* ctx : {static_cast<const ComputeContext*>(nullptr),
                                            static_cast<const ComputeContext*>(&pool_ctx)}) {
            const Tensor c = kernel.run(l, r, ctx);
            ASSERT_EQ(c.rows(), m);
            ASSERT_EQ(c.cols(), n);
            EXPECT_TRUE(c.size() == 0 ||
                        std::memcmp(c.data(), ref.data(),
                                    static_cast<size_t>(c.size()) * sizeof(float)) == 0)
                << kernel.name << " m=" << m << " k=" << k << " n=" << n
                << (ctx != nullptr ? " pooled" : "");
            if (m > 0 && n > 1) {
              EXPECT_TRUE(std::isnan(c(0, 1))) << kernel.name << ": 0 * inf was skipped";
            }
          }
        }
      }
    }
  }
}

TEST(Ops, IndexSelectAndScatterAddInverse) {
  Tensor t = MakeTensor(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<int64_t> idx = {2, 0, 2};
  Tensor sel = IndexSelect(t, idx);
  EXPECT_FLOAT_EQ(sel(0, 0), 5);
  EXPECT_FLOAT_EQ(sel(1, 0), 1);
  EXPECT_FLOAT_EQ(sel(2, 1), 6);

  Tensor acc(4, 2);
  ScatterAddRows(acc, idx, sel);
  EXPECT_FLOAT_EQ(acc(2, 0), 10);  // row 2 hit twice
  EXPECT_FLOAT_EQ(acc(0, 1), 2);
  EXPECT_FLOAT_EQ(acc(1, 0), 0);
}

TEST(Ops, SegmentSumBasic) {
  Tensor src = MakeTensor(5, 2, {1, 1, 2, 2, 3, 3, 4, 4, 5, 5});
  std::vector<int64_t> offsets = {0, 2, 2, 5};
  Tensor out = SegmentSum(src, offsets);
  ASSERT_EQ(out.rows(), 3);
  EXPECT_FLOAT_EQ(out(0, 0), 3);   // rows 0+1
  EXPECT_FLOAT_EQ(out(1, 0), 0);   // empty segment
  EXPECT_FLOAT_EQ(out(2, 1), 12);  // rows 2+3+4
}

TEST(Ops, GatherSegmentMeanBasic) {
  Tensor h = MakeTensor(3, 1, {2, 4, 9});
  std::vector<int64_t> rows = {0, 1, 2, 2};
  std::vector<int64_t> offsets = {0, 2, 2, 4};
  Tensor out = GatherSegmentMean(h, rows, offsets);
  ASSERT_EQ(out.rows(), 3);
  EXPECT_FLOAT_EQ(out(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 0.0f);  // empty segment
  EXPECT_FLOAT_EQ(out(2, 0), 9.0f);
  EXPECT_FLOAT_EQ(GatherSegmentSum(h, rows, offsets)(2, 0), 18.0f);
}

TEST(Ops, GatherSegmentSumBackwardBroadcasts) {
  Tensor grad = MakeTensor(2, 2, {1, 2, 3, 4});
  std::vector<int64_t> rows = {4, 0, 4, 1};  // row 4 is hit twice by segment 0
  std::vector<int64_t> offsets = {0, 3, 4};
  Tensor dh(5, 2);
  GatherSegmentSumBackward(dh, rows, offsets, grad);
  EXPECT_FLOAT_EQ(dh(4, 0), 2);
  EXPECT_FLOAT_EQ(dh(4, 1), 4);
  EXPECT_FLOAT_EQ(dh(0, 1), 2);
  EXPECT_FLOAT_EQ(dh(1, 0), 3);
  EXPECT_FLOAT_EQ(dh(2, 0), 0);
}

TEST(Ops, GatherSegmentMeanBackwardDivides) {
  Tensor grad = MakeTensor(1, 1, {6});
  std::vector<int64_t> rows = {0, 1, 2};
  std::vector<int64_t> offsets = {0, 3};
  Tensor dh = Tensor::Full(3, 1, 1.0f);  // backward accumulates
  GatherSegmentMeanBackward(dh, rows, offsets, grad);
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_FLOAT_EQ(dh(r, 0), 3.0f);
  }
}

TEST(Ops, SegmentSoftmaxNormalizesPerSegment) {
  Tensor s = MakeTensor(5, 1, {1, 2, 3, 10, 10});
  std::vector<int64_t> offsets = {0, 3, 5};
  SegmentSoftmaxInPlace(s, offsets);
  EXPECT_NEAR(s(0, 0) + s(1, 0) + s(2, 0), 1.0f, 1e-5);
  EXPECT_NEAR(s(3, 0) + s(4, 0), 1.0f, 1e-5);
  EXPECT_NEAR(s(3, 0), 0.5f, 1e-5);
  EXPECT_GT(s(2, 0), s(1, 0));
}

TEST(Ops, SegmentSoftmaxBackwardNumeric) {
  // Numeric check of d(sum(w . softmax(x))) / dx per segment.
  Rng rng(4);
  Tensor x = Tensor::Normal(6, 1, 1.0f, rng);
  Tensor w = Tensor::Normal(6, 1, 1.0f, rng);
  std::vector<int64_t> offsets = {0, 2, 6};

  auto value = [&](const Tensor& input) {
    Tensor p = input;
    SegmentSoftmaxInPlace(p, offsets);
    double v = 0.0;
    for (int64_t i = 0; i < 6; ++i) {
      v += w.data()[i] * p.data()[i];
    }
    return v;
  };

  Tensor probs = x;
  SegmentSoftmaxInPlace(probs, offsets);
  Tensor analytic = SegmentSoftmaxBackward(probs, w, offsets);

  const float eps = 1e-3f;
  for (int64_t i = 0; i < 6; ++i) {
    Tensor xp = x, xm = x;
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const double numeric = (value(xp) - value(xm)) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, 2e-2);
  }
}

TEST(Ops, ReluAndBackward) {
  Tensor t = MakeTensor(1, 4, {-1, 0, 2, -3});
  Tensor out = Relu(t);
  EXPECT_FLOAT_EQ(out(0, 0), 0);
  EXPECT_FLOAT_EQ(out(0, 2), 2);
  Tensor grad = MakeTensor(1, 4, {1, 1, 1, 1});
  Tensor gin = ReluBackward(out, grad);
  EXPECT_FLOAT_EQ(gin(0, 0), 0);
  EXPECT_FLOAT_EQ(gin(0, 2), 1);
}

TEST(Ops, LeakyReluSlope) {
  Tensor t = MakeTensor(1, 2, {-10, 10});
  Tensor out = LeakyRelu(t, 0.1f);
  EXPECT_FLOAT_EQ(out(0, 0), -1.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 10.0f);
  Tensor grad = MakeTensor(1, 2, {1, 1});
  Tensor gin = LeakyReluBackward(out, grad, 0.1f);
  EXPECT_FLOAT_EQ(gin(0, 0), 0.1f);
  EXPECT_FLOAT_EQ(gin(0, 1), 1.0f);
}

// The ReLU family's loops vectorize (a compare and a blend per lane); they must
// equal the scalar `>` select bit for bit on every input, including the vector
// tails (lengths 0 to 3 * kW + 1), signed zeros, NaNs, infinities, denormals
// and an alternating-sign run.
std::vector<float> ReluLaneInputs(int64_t n, int64_t phase) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float special[] = {0.0f,   -0.0f,        nan,     -nan,    inf,   -inf,
                           denorm, -denorm,      1e-39f,  -1e-39f, 1.5f,  -2.25f,
                           3e38f,  -3e38f,       1e-30f,  -7.0f};
  const int64_t num_special = static_cast<int64_t>(sizeof(special) / sizeof(special[0]));
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    // Even phases cycle the special values; odd phases alternate the sign.
    v[static_cast<size_t>(i)] = phase % 2 == 0
                                    ? special[(i * 5 + phase) % num_special]
                                    : (i % 2 == 0 ? 1.0f : -1.0f) * (0.5f + static_cast<float>(i));
  }
  return v;
}

void ExpectSameBits(const Tensor& got, const std::vector<float>& want, const char* kernel,
                    int64_t n) {
  ASSERT_EQ(got.size(), static_cast<int64_t>(want.size()));
  if (want.empty()) {
    return;  // an empty tensor's data() may be null, which memcmp must not get
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
      << kernel << " diverged from its scalar reference at length " << n;
}

TEST(OpsLanes, ReluFamilyMatchesScalarReferenceBitwise) {
  const float slope = 0.2f;
  for (int64_t n = 0; n <= 3 * kW + 1; ++n) {
    for (int64_t phase = 0; phase < 4; ++phase) {
      const std::vector<float> x = ReluLaneInputs(n, phase);
      const std::vector<float> g = ReluLaneInputs(n, phase + 1);
      const Tensor xt = MakeTensor(1, n, x);
      const Tensor gt = MakeTensor(1, n, g);
      std::vector<float> relu(x.size()), relu_bwd(x.size()), leaky(x.size()),
          leaky_bwd(x.size());
      for (size_t i = 0; i < x.size(); ++i) {
        relu[i] = x[i] > 0.0f ? x[i] : 0.0f;
        relu_bwd[i] = x[i] > 0.0f ? g[i] : 0.0f;
        leaky[i] = x[i] > 0.0f ? x[i] : slope * x[i];
        leaky_bwd[i] = x[i] > 0.0f ? g[i] : slope * g[i];
      }
      ExpectSameBits(Relu(xt), relu, "Relu", n);
      ExpectSameBits(ReluBackward(xt, gt), relu_bwd, "ReluBackward", n);
      ExpectSameBits(LeakyRelu(xt, slope), leaky, "LeakyRelu", n);
      ExpectSameBits(LeakyReluBackward(xt, gt, slope), leaky_bwd, "LeakyReluBackward", n);
    }
  }
}

TEST(Ops, RowSoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::Normal(7, 9, 3.0f, rng);
  Tensor p = RowSoftmax(logits);
  for (int64_t r = 0; r < p.rows(); ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < p.cols(); ++c) {
      EXPECT_GE(p(r, c), 0.0f);
      sum += p(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxCrossEntropyGradientNumeric) {
  Rng rng(6);
  Tensor logits = Tensor::Normal(4, 5, 1.0f, rng);
  std::vector<int64_t> labels = {0, 3, 2, 4};
  Tensor dlogits;
  const float loss = SoftmaxCrossEntropy(logits, labels, &dlogits);
  EXPECT_GT(loss, 0.0f);

  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp.data()[i] += eps;
    lm.data()[i] -= eps;
    const float fp = SoftmaxCrossEntropy(lp, labels, nullptr);
    const float fm = SoftmaxCrossEntropy(lm, labels, nullptr);
    EXPECT_NEAR(dlogits.data()[i], (fp - fm) / (2 * eps), 5e-3);
  }
}

TEST(Ops, SoftmaxCrossEntropyPerfectPrediction) {
  Tensor logits = MakeTensor(2, 3, {100, 0, 0, 0, 0, 100});
  const float loss = SoftmaxCrossEntropy(logits, {0, 2}, nullptr);
  EXPECT_NEAR(loss, 0.0f, 1e-4);
}

TEST(Ops, AddBiasAndSumRows) {
  Tensor t(2, 3);
  Tensor bias = MakeTensor(1, 3, {1, 2, 3});
  AddBiasRows(t, bias);
  EXPECT_FLOAT_EQ(t(1, 2), 3);
  Tensor s = SumRows(t);
  EXPECT_FLOAT_EQ(s(0, 0), 2);
  EXPECT_FLOAT_EQ(s(0, 2), 6);
}

// Property sweep: GatherSegmentSum and its backward are adjoint for random shapes.
class SegmentParamTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SegmentParamTest, SumBackwardAdjoint) {
  // <GatherSegmentSum(x, rows), g> == <x, GatherSegmentSumBackward(g)> (adjoint
  // identity), with rows repeating input rows.
  const int64_t segs = GetParam();
  Rng rng(100 + static_cast<uint64_t>(segs));
  std::vector<int64_t> offsets = {0};
  for (int64_t s = 0; s < segs; ++s) {
    offsets.push_back(offsets.back() + static_cast<int64_t>(rng.UniformInt(4)));
  }
  const int64_t inputs = 1 + segs / 2;
  std::vector<int64_t> rows(static_cast<size_t>(offsets.back()));
  for (auto& r : rows) {
    r = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(inputs)));
  }
  Tensor x = Tensor::Normal(inputs, 3, 1.0f, rng);
  Tensor g = Tensor::Normal(segs, 3, 1.0f, rng);
  Tensor y = GatherSegmentSum(x, rows, offsets);
  Tensor gx(inputs, 3);
  GatherSegmentSumBackward(gx, rows, offsets, g);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < y.size(); ++i) {
    lhs += static_cast<double>(y.data()[i]) * g.data()[i];
  }
  for (int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x.data()[i]) * gx.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SegmentParamTest,
                         ::testing::Values(1, 2, 5, 17, 64, 200));

// Adjoint identity for the matmul trio: <A x, y> == <x, A^T y> over random shapes.
class MatmulParamTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(MatmulParamTest, TransposeAdjointIdentity) {
  const auto [m, k, n] = GetParam();
  Rng rng(7 + static_cast<uint64_t>(m * 100 + k * 10 + n));
  Tensor a = Tensor::Normal(m, k, 1.0f, rng);
  Tensor x = Tensor::Normal(k, n, 1.0f, rng);
  Tensor y = Tensor::Normal(m, n, 1.0f, rng);
  Tensor ax = Matmul(a, x);
  Tensor aty = MatmulTransA(a, y);  // A^T y
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < ax.size(); ++i) {
    lhs += static_cast<double>(ax.data()[i]) * y.data()[i];
  }
  for (int64_t i = 0; i < aty.size(); ++i) {
    rhs += static_cast<double>(aty.data()[i]) * x.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * (1.0 + std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulParamTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 5, 2),
                                           std::make_tuple(16, 8, 4),
                                           std::make_tuple(7, 31, 13),
                                           std::make_tuple(64, 32, 16)));

TEST(Ops, SegmentSoftmaxAllEmptySegments) {
  Tensor s(0, 1);
  std::vector<int64_t> offsets = {0, 0, 0};
  SegmentSoftmaxInPlace(s, offsets);  // must not crash
  EXPECT_EQ(s.rows(), 0);
}

TEST(Ops, IndexSelectEmpty) {
  Tensor t = Tensor::Full(3, 2, 1.0f);
  Tensor out = IndexSelect(t, {});
  EXPECT_EQ(out.rows(), 0);
  EXPECT_EQ(out.cols(), 2);
}

TEST(Ops, SegmentSumSingleRowSegments) {
  // Identity when every segment has exactly one row.
  Rng rng(9);
  Tensor src = Tensor::Normal(6, 3, 1.0f, rng);
  std::vector<int64_t> offsets = {0, 1, 2, 3, 4, 5, 6};
  Tensor out = SegmentSum(src, offsets);
  for (int64_t i = 0; i < src.size(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], src.data()[i]);
  }
}

// ---------------------------------------------------------------------------
// Bitwise determinism of the parallel kernels: chunk boundaries and reduction
// order depend only on tensor shapes, so a null context and pools of 1, 2, and
// 8 workers must produce identical bits (not just close values).
// ---------------------------------------------------------------------------

// Runs `kernel(ctx)` serially and on 1/2/8-worker pools; every result must be
// byte-identical to the serial one.
void ExpectBitwiseIdenticalAcrossPools(
    const std::function<Tensor(const ComputeContext*)>& kernel) {
  const Tensor serial = kernel(nullptr);
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    ComputeContext ctx;
    ctx.pool = &pool;
    const Tensor parallel = kernel(&ctx);
    ASSERT_EQ(parallel.rows(), serial.rows());
    ASSERT_EQ(parallel.cols(), serial.cols());
    ASSERT_EQ(std::memcmp(parallel.data(), serial.data(),
                          static_cast<size_t>(serial.size()) * sizeof(float)),
              0)
        << "kernel diverged with " << workers << " workers";
  }
}

TEST(OpsDeterminism, MatmulAcrossPools) {
  // > kComputeGrainRows rows so several chunks are in play.
  Rng rng(21);
  Tensor a = Tensor::Normal(300, 40, 1.0f, rng);
  Tensor b = Tensor::Normal(40, 30, 1.0f, rng);
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    return Matmul(a, b, ctx);
  });
}

TEST(OpsDeterminism, MatmulTransAAcrossPools) {
  Rng rng(22);
  Tensor a = Tensor::Normal(150, 200, 1.0f, rng);  // 200 output rows -> 4 chunks
  Tensor b = Tensor::Normal(150, 20, 1.0f, rng);
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    return MatmulTransA(a, b, ctx);
  });
}

TEST(OpsDeterminism, MatmulTransBAcrossPools) {
  Rng rng(23);
  Tensor a = Tensor::Normal(300, 40, 1.0f, rng);
  Tensor b = Tensor::Normal(25, 40, 1.0f, rng);
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    return MatmulTransB(a, b, ctx);
  });
}

TEST(OpsDeterminism, SumRowsOrderedReductionAcrossPools) {
  // SumRows folds per-chunk partials in ascending chunk order; with 5 chunks the
  // float sum order is fixed, so every pool size must reproduce the same bits.
  Rng rng(24);
  Tensor t = Tensor::Normal(300, 17, 1.0f, rng);
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    return SumRows(t, ctx);
  });
}

TEST(OpsDeterminism, ElementwiseAcrossPools) {
  Rng rng(25);
  Tensor a = Tensor::Normal(123, 97, 1.0f, rng);  // 11931 elems -> 2 elem chunks
  Tensor b = Tensor::Normal(123, 97, 1.0f, rng);
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    Tensor out = b;
    AddInPlace(out, a, ctx);
    Tensor r = Relu(out, ctx);
    Tensor g = ReluBackward(r, out, ctx);
    Tensor th = Tanh(out, ctx);
    AddInPlace(g, TanhBackward(th, out, ctx), ctx);
    return g;
  });
}

TEST(OpsDeterminism, SegmentOpsAcrossPools) {
  Rng rng(26);
  std::vector<int64_t> offsets = {0};
  for (int64_t s = 0; s < 200; ++s) {  // 200 segments -> 4 segment chunks
    offsets.push_back(offsets.back() + static_cast<int64_t>(rng.UniformInt(5)));
  }
  Tensor src = Tensor::Normal(offsets.back(), 13, 1.0f, rng);
  Tensor grad = Tensor::Normal(200, 13, 1.0f, rng);
  std::vector<int64_t> rows(static_cast<size_t>(offsets.back()));
  for (auto& r : rows) {
    r = static_cast<int64_t>(rng.UniformInt(150));
  }
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    Tensor out = SegmentSum(src, offsets, ctx);
    AddInPlace(out, GatherSegmentSum(src, rows, offsets, ctx), ctx);
    AddInPlace(out, GatherSegmentMean(src, rows, offsets, ctx), ctx);
    Tensor back(150, 13);
    GatherSegmentSumBackward(back, rows, offsets, grad, ctx);
    GatherSegmentMeanBackward(back, rows, offsets, grad, ctx);
    Tensor flat_out(1, out.size(), std::vector<float>(out.data(), out.data() + out.size()));
    Tensor flat_back(1, back.size(),
                     std::vector<float>(back.data(), back.data() + back.size()));
    Tensor joined(2, std::max(out.size(), back.size()));
    for (int64_t i = 0; i < out.size(); ++i) {
      joined(0, i % joined.cols()) += flat_out.data()[i];
    }
    for (int64_t i = 0; i < back.size(); ++i) {
      joined(1, i % joined.cols()) += flat_back.data()[i];
    }
    return joined;
  });
}

TEST(OpsDeterminism, SegmentSoftmaxAcrossPools) {
  Rng rng(27);
  std::vector<int64_t> offsets = {0};
  for (int64_t s = 0; s < 150; ++s) {
    offsets.push_back(offsets.back() + 1 + static_cast<int64_t>(rng.UniformInt(4)));
  }
  Tensor scores = Tensor::Normal(offsets.back(), 1, 2.0f, rng);
  Tensor grad = Tensor::Normal(offsets.back(), 1, 1.0f, rng);
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    Tensor probs = scores;
    SegmentSoftmaxInPlace(probs, offsets, ctx);
    Tensor back = SegmentSoftmaxBackward(probs, grad, offsets, ctx);
    AddInPlace(back, probs, ctx);
    return back;
  });
}

TEST(OpsDeterminism, SoftmaxCrossEntropyAcrossPools) {
  Rng rng(28);
  Tensor logits = Tensor::Normal(200, 11, 1.0f, rng);  // 4 row chunks
  std::vector<int64_t> labels(200);
  for (auto& y : labels) {
    y = static_cast<int64_t>(rng.UniformInt(11));
  }
  float serial_loss = 0.0f;
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    Tensor dlogits;
    const float loss = SoftmaxCrossEntropy(logits, labels, &dlogits, ctx);
    if (ctx == nullptr) {
      serial_loss = loss;
    } else {
      EXPECT_EQ(loss, serial_loss);  // loss scalar must match bitwise too
    }
    return dlogits;
  });
}

// ScatterAddRows is a scatter-reduce: duplicate indices are the adversarial case
// because every duplicate is a read-modify-write collision a naive parallel scatter
// would race on. The chunked kernel accumulates compact per-chunk partials and folds
// them in ascending chunk order, so every pool size must reproduce the null-context
// bits exactly.
void ExpectScatterBitwiseAcrossPools(const std::vector<int64_t>& indices,
                                     int64_t dst_rows) {
  Rng rng(31);
  Tensor src = Tensor::Normal(static_cast<int64_t>(indices.size()), 9, 1.0f, rng);
  Tensor base = Tensor::Normal(dst_rows, 9, 0.5f, rng);
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    Tensor dst = base;
    ScatterAddRows(dst, indices, src, ctx);
    return dst;
  });
}

TEST(OpsDeterminism, ScatterAddRowsAllSameIndexAcrossPools) {
  // Worst case: every row collides on one destination (2000 rows -> 4 chunks at
  // the scatter grain, all feeding dst row 3).
  std::vector<int64_t> indices(2000, 3);
  ExpectScatterBitwiseAcrossPools(indices, 8);
}

TEST(OpsDeterminism, ScatterAddRowsInterleavedAcrossPools) {
  // Round-robin duplicates: every destination row is touched by every chunk.
  std::vector<int64_t> indices(2000);
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<int64_t>(i % 7);
  }
  ExpectScatterBitwiseAcrossPools(indices, 7);
}

TEST(OpsDeterminism, ScatterAddRowsRandomDuplicatesAcrossPools) {
  Rng rng(32);
  std::vector<int64_t> indices(3000);
  for (auto& v : indices) {
    v = static_cast<int64_t>(rng.UniformInt(40));
  }
  ExpectScatterBitwiseAcrossPools(indices, 40);
}

TEST(OpsDeterminism, ScatterAddRowsEmptyAcrossPools) {
  ExpectScatterBitwiseAcrossPools({}, 5);
}

TEST(Ops, ScatterAddRowsAllSameIndexExactSum) {
  // 2000 ones into one row sums exactly in float: the chunked partial fold must
  // lose nothing even when every row collides.
  std::vector<int64_t> indices(2000, 1);
  Tensor src = Tensor::Full(2000, 3, 1.0f);
  Tensor dst(4, 3);
  ThreadPool pool(8);
  ComputeContext ctx;
  ctx.pool = &pool;
  ScatterAddRows(dst, indices, src, &ctx);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(dst(1, c), 2000.0f);
    EXPECT_FLOAT_EQ(dst(0, c), 0.0f);
  }
}

// The fused gather-reduce kernels and the pull scatter-reduce against the scalar
// composition they replace (tests/aggregation_reference.h), bit for bit. Position
// counts straddle the scatter chunk grain (511, 512, 513) and reach ten chunks;
// index patterns are all-same, interleaved, strictly increasing and random;
// segments are ragged with empty ones; values include +-0, +-inf and NaN, and
// whole -0.0 rows, whose sign a +0.0f partial flips where a direct add keeps it.
struct PullCase {
  std::string name;
  std::vector<int64_t> indices;  // one per position
  int64_t rows;                  // destination (or gathered) rows
};

std::vector<PullCase> PullCases() {
  std::vector<PullCase> cases;
  Rng rng(41);
  for (int64_t n : {0, 1, 511, 512, 513, 5000}) {
    const std::string tag = "n" + std::to_string(n);
    PullCase same{tag + "/all_same", std::vector<int64_t>(static_cast<size_t>(n), 3), 8};
    PullCase interleaved{tag + "/interleaved", {}, 7};
    PullCase increasing{tag + "/increasing", {}, 2 * n + 2};
    PullCase random{tag + "/random", {}, 40};
    for (int64_t e = 0; e < n; ++e) {
      interleaved.indices.push_back(e % 7);
      increasing.indices.push_back(2 * e + 1);
      random.indices.push_back(static_cast<int64_t>(rng.UniformInt(40)));
    }
    cases.push_back(std::move(same));
    cases.push_back(std::move(interleaved));
    cases.push_back(std::move(increasing));
    cases.push_back(std::move(random));
  }
  return cases;
}

// Ragged segments over n positions (sizes 0..9, so some are empty), with an empty
// segment at each end; and one segment holding every position.
std::vector<std::vector<int64_t>> PullOffsets(int64_t n, Rng& rng) {
  std::vector<int64_t> ragged = {0, 0};
  while (ragged.back() < n) {
    ragged.push_back(std::min(n, ragged.back() + static_cast<int64_t>(rng.UniformInt(10))));
  }
  ragged.push_back(n);
  return {ragged, {0, n}};
}

// Normal values with specials planted: every 5th row all -0.0, and every 11th row
// one of +0, -0, +inf, -inf, NaN in one column. The NaN is the hardware's default
// NaN (inf - inf), the only NaN arithmetic makes, so NaN bits cannot depend on
// which operand of an add the compiler puts first.
Tensor PullValues(int64_t rows, int64_t cols, Rng& rng) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  const float specials[] = {0.0f, -0.0f, inf, -inf, nan};
  Tensor t = Tensor::Normal(rows, cols, 1.0f, rng);
  for (int64_t r = 0; r < rows; ++r) {
    if (r % 5 == 0) {
      std::fill(t.RowPtr(r), t.RowPtr(r) + cols, -0.0f);
    } else if (r % 11 == 0) {
      t(r, r % cols) = specials[(r / 11) % 5];
    }
  }
  return t;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Runs check(ctx) with a null context and pools of 1, 2 and 8 workers.
void ForEachPullContext(const std::function<void(const ComputeContext*, const std::string&)>&
                            check) {
  check(nullptr, "null");
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    ComputeContext ctx;
    ctx.pool = &pool;
    check(&ctx, std::to_string(workers) + " workers");
  }
}

// The add forms of the matmul fold each output from +0.0f over kk ascending and
// add it to C once, so they must have the bits of AddInPlace(C, product): for k
// of one step, of a whole 64-step panel and past one panel (300); for n with
// whole register tiles, single vectors and scalar columns at 4-, 8- and 16-float
// vectors; for an odd last row; over a nonzero C; and with +-0, +-inf and the
// hardware NaN planted in A, B and C as in PullValues. The operands are row
// ranges of larger tensors, read and written in place, and the rows of C
// outside the range must keep their bits.
TEST(OpsLanes, MatmulAddFormsMatchProductPlusAddInPlaceBitwise) {
  ThreadPool pool(2);
  ComputeContext pool_ctx;
  pool_ctx.pool = &pool;
  Rng rng(47);
  for (int64_t m : {1, 3, 130}) {
    for (int64_t k : {1, 64, 300}) {
      for (int64_t n : {3, 9, 33, 45, 64}) {
        const int64_t a_begin = 2, c_begin = 5;
        const Tensor a_all = PullValues(a_begin + m + 1, k, rng);
        const Tensor b = PullValues(k, n, rng);
        const Tensor bt = PullValues(n, k, rng);
        const Tensor c0 = PullValues(c_begin + m + 3, n, rng);
        std::vector<int64_t> a_rows(static_cast<size_t>(m));
        std::iota(a_rows.begin(), a_rows.end(), a_begin);
        const Tensor a = IndexSelect(a_all, a_rows);
        // The references: the product, then AddInPlace into C's row range.
        auto with_added = [&](const Tensor& product) {
          Tensor want = c0;
          AddInPlace(RowSpan(want, c_begin, m), product);
          return want;
        };
        const Tensor want_ab = with_added(Matmul(a, b));
        const Tensor want_abt = with_added(MatmulTransB(a, bt));
        for (const ComputeContext* ctx : {static_cast<const ComputeContext*>(nullptr),
                                          static_cast<const ComputeContext*>(&pool_ctx)}) {
          const std::string shape = "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                                    " n=" + std::to_string(n) +
                                    (ctx != nullptr ? " pooled" : "");
          Tensor got = c0;
          MatmulAdd(RowSpan(got, c_begin, m), ConstRowSpan(a_all, a_begin, m), b, ctx);
          EXPECT_TRUE(SameBits(got, want_ab)) << "MatmulAdd " << shape;
          got = c0;
          MatmulTransBAdd(RowSpan(got, c_begin, m), a, bt, ctx);
          EXPECT_TRUE(SameBits(got, want_abt)) << "MatmulTransBAdd " << shape;
        }
      }
    }
  }
}

// Column counts for the pull tests: one column, scalar columns only (9 at 16
// lanes), one vector, 4 and 8 vectors (a whole 8-vector register block), 8
// vectors and 3 scalar columns, and 9 vectors (a block of 8, then a single).
std::vector<int64_t> PullColumns() { return {1, 9, kW, 4 * kW, 8 * kW, 8 * kW + 3, 9 * kW}; }

TEST(OpsPull, ScatterAddRowsMatchesChunkFoldReferenceBitwise) {
  for (const int64_t cols : PullColumns()) {
    for (const PullCase& pc : PullCases()) {
      Rng rng(43);
      const int64_t n = static_cast<int64_t>(pc.indices.size());
      const Tensor src = PullValues(n, cols, rng);
      const Tensor base = PullValues(pc.rows, cols, rng);
      Tensor want = base;
      RefScatterAddRows(want, pc.indices, src);
      ForEachPullContext([&](const ComputeContext* ctx, const std::string& how) {
        Tensor dst = base;
        ScatterAddRows(dst, pc.indices, src, ctx);
        EXPECT_TRUE(SameBits(dst, want)) << pc.name << ", " << cols << " cols, " << how;
      });
    }
  }
}

TEST(OpsPull, GatherSegmentMatchesGatherThenReduceBitwise) {
  for (const int64_t cols : PullColumns()) {
    for (const PullCase& pc : PullCases()) {
      Rng rng(45);
      const int64_t n = static_cast<int64_t>(pc.indices.size());
      const Tensor h = PullValues(pc.rows, cols, rng);
      for (const std::vector<int64_t>& offsets : PullOffsets(n, rng)) {
        for (const bool mean : {false, true}) {
          const Tensor want = RefGatherSegmentReduce(h, pc.indices, offsets, mean);
          ForEachPullContext([&](const ComputeContext* ctx, const std::string& how) {
            const Tensor got = mean ? GatherSegmentMean(h, pc.indices, offsets, ctx)
                                    : GatherSegmentSum(h, pc.indices, offsets, ctx);
            EXPECT_TRUE(SameBits(got, want))
                << pc.name << ", " << cols << " cols, " << offsets.size() - 1
                << " segments, mean " << mean << ", " << how;
          });
        }
      }
    }
  }
}

TEST(OpsPull, GatherSegmentBackwardMatchesBroadcastThenFoldBitwise) {
  for (const int64_t cols : PullColumns()) {
    for (const PullCase& pc : PullCases()) {
      Rng rng(47);
      const int64_t n = static_cast<int64_t>(pc.indices.size());
      const Tensor base = PullValues(pc.rows, cols, rng);
      for (const std::vector<int64_t>& offsets : PullOffsets(n, rng)) {
        const Tensor grad = PullValues(static_cast<int64_t>(offsets.size()) - 1, cols, rng);
        for (const bool mean : {false, true}) {
          Tensor want = base;
          RefGatherSegmentReduceBackward(want, pc.indices, offsets, grad, mean);
          ForEachPullContext([&](const ComputeContext* ctx, const std::string& how) {
            Tensor dh = base;
            if (mean) {
              GatherSegmentMeanBackward(dh, pc.indices, offsets, grad, ctx);
            } else {
              GatherSegmentSumBackward(dh, pc.indices, offsets, grad, ctx);
            }
            EXPECT_TRUE(SameBits(dh, want))
                << pc.name << ", " << cols << " cols, " << offsets.size() - 1
                << " segments, mean " << mean << ", " << how;
          });
        }
      }
    }
  }
}

// The mean form's backward is the adjoint of its forward:
// <GatherSegmentMean(x), g> == <x, GatherSegmentMeanBackward(g)>.
TEST(OpsPull, GatherSegmentMeanBackwardIsAdjoint) {
  Rng rng(49);
  const int64_t inputs = 300;
  std::vector<int64_t> rows(2000);
  for (auto& r : rows) {
    r = static_cast<int64_t>(rng.UniformInt(inputs));
  }
  const std::vector<int64_t> offsets = PullOffsets(2000, rng)[0];
  const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
  Tensor x = Tensor::Normal(inputs, 5, 1.0f, rng);
  Tensor g = Tensor::Normal(segs, 5, 1.0f, rng);
  Tensor y = GatherSegmentMean(x, rows, offsets);
  Tensor gx(inputs, 5);
  GatherSegmentMeanBackward(gx, rows, offsets, g);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < y.size(); ++i) {
    lhs += static_cast<double>(y.data()[i]) * g.data()[i];
  }
  for (int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x.data()[i]) * gx.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)));
}

TEST(OpsDeterminism, GatherNormalizeAcrossPools) {
  Rng rng(29);
  Tensor table = Tensor::Normal(500, 19, 1.0f, rng);
  std::vector<int64_t> idx(300);
  for (auto& v : idx) {
    v = static_cast<int64_t>(rng.UniformInt(500));
  }
  Tensor bias = Tensor::Normal(1, 19, 1.0f, rng);
  ExpectBitwiseIdenticalAcrossPools([&](const ComputeContext* ctx) {
    Tensor out = IndexSelect(table, idx, ctx);
    AddBiasRows(out, bias, ctx);
    Tensor sm = RowSoftmax(out, ctx);
    AddInPlace(out, sm, ctx);
    return out;
  });
}

}  // namespace
}  // namespace mariusgnn
