// Dense kernels used by the GNN layers and the DENSE forward pass (Algorithm 3).
//
// Conventions:
//  - All matrices are row-major Tensors.
//  - "Segments" are contiguous row ranges described by an offsets array of length
//    num_segments + 1 (offsets[s]..offsets[s+1] are the rows of segment s). The DENSE
//    nbr_offsets array is converted to this closed form by DenseBatch.
//  - Backward kernels accumulate into their output ("+=" semantics) so multiple paths
//    through a layer can add gradients without extra temporaries.
//  - Every kernel takes an optional ComputeContext and runs its work in fixed chunks
//    (see src/util/compute.h): output rows for the matmuls, segments for the segment
//    reductions, flat elements for the elementwise ops. Chunk boundaries and any
//    cross-chunk reduction order depend only on the input shape, so results are
//    bitwise-identical for a null context and for pools of any size.
//  - The scatter-reduces (ScatterAddRows and the Gather* backward kernels) have a
//    data-dependent write set: duplicate indices send many positions to one row.
//    They pull instead of scattering. A counting sort lists each destination
//    row's positions in ascending order, and each row folds its own positions
//    in fixed position chunks, one +0.0f partial per chunk added in ascending
//    chunk order (kComputeGrainScatterRows). A partial is held in vector
//    registers, column block by column block, and added to its row once. Rows
//    are chunked, and each row is written by one chunk only
//    (docs/DETERMINISM.md, "Scatter-reduce").
#ifndef SRC_TENSOR_OPS_H_
#define SRC_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/compute.h"

namespace mariusgnn {

// The matmuls share one register-tiled kernel (src/tensor/ops.cc), row-chunked
// over the m output rows. With L and R the left and right factors of the product as
// written (A^T, B^T included), every output has the bits of the scalar dot product
// s = +0.0f; s += L(i, kk) * R(kk, j) for kk ascending, at any vector width and pool
// size. Zero L values are not skipped, so 0 * inf and 0 * NaN give NaN
// (docs/DETERMINISM.md, "Lane kernels"). The add forms (MatmulAdd,
// MatmulTransBAdd) fold each output the same way and then add it to C once, so
// they have the bits of AddInPlace(C, Matmul(...)) for any k, without the product
// matrix. A span operand is a contiguous row range read or written in place.

// C = A @ B. A: m x k, B: k x n -> C: m x n.
Tensor Matmul(ConstRowSpan a, const Tensor& b, const ComputeContext* ctx = nullptr);

// C += A @ B. A: m x k, B: k x n, C: m x n.
void MatmulAdd(RowSpan c, ConstRowSpan a, const Tensor& b,
               const ComputeContext* ctx = nullptr);

// C = A^T @ B. A: k x m, B: k x n -> C: m x n. (Weight-gradient shape.) A is read
// in place with strides, not transposed.
Tensor MatmulTransA(ConstRowSpan a, const Tensor& b, const ComputeContext* ctx = nullptr);

// C = A @ B^T. A: m x k, B: n x k -> C: m x n. (Input-gradient shape.) B is
// transposed once per call.
Tensor MatmulTransB(const Tensor& a, const Tensor& b, const ComputeContext* ctx = nullptr);

// C += A @ B^T. A: m x k, B: n x k, C: m x n.
void MatmulTransBAdd(RowSpan c, const Tensor& a, const Tensor& b,
                     const ComputeContext* ctx = nullptr);

// out += in (same shape).
void AddInPlace(RowSpan out, ConstRowSpan in, const ComputeContext* ctx = nullptr);

// Adds a 1 x n bias row to every row of t (n == t.cols()).
void AddBiasRows(Tensor& t, const Tensor& bias, const ComputeContext* ctx = nullptr);

// Column-sum of t as a 1 x n tensor (bias gradient). Ordered per-chunk reduction:
// chunk partial sums are folded in ascending chunk order.
Tensor SumRows(const Tensor& t, const ComputeContext* ctx = nullptr);

// Gathers rows: out[i] = t[indices[i]].
Tensor IndexSelect(const Tensor& t, const std::vector<int64_t>& indices,
                   const ComputeContext* ctx = nullptr);

// Scatter-add rows: dst[indices[i]] += src[i]. Duplicate indices are allowed. The
// bits are those of positions cut into chunks of kComputeGrainScatterRows, each
// chunk summing its rows per destination into a partial that starts at +0.0f and
// the partials added to dst in ascending chunk order; a call of one chunk, or
// strictly increasing indices, add every row straight in. Any pool size, or a
// null context, produces these bits (see header note).
void ScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices, const Tensor& src,
                    const ComputeContext* ctx = nullptr);

// Segment reductions over contiguous rows. offsets.size() == num_segments + 1 and
// offsets.back() == src.rows(). Empty segments produce zero rows. Chunked over
// segments: each destination row is owned by exactly one chunk.
Tensor SegmentSum(const Tensor& src, const std::vector<int64_t>& offsets,
                  const ComputeContext* ctx = nullptr);

// Fused gather and segment reduction: output row s starts at +0.0f and adds
// h[rows[e]] for e in [offsets[s], offsets[s+1]) ascending, so it has the bits of
// SegmentSum(IndexSelect(h, rows), offsets) without the gathered matrix.
// offsets.back() == rows.size(). The mean form then scales row s by
// 1.0f / count when count > 1. Chunked over segments.
Tensor GatherSegmentSum(const Tensor& h, const std::vector<int64_t>& rows,
                        const std::vector<int64_t>& offsets,
                        const ComputeContext* ctx = nullptr);
Tensor GatherSegmentMean(const Tensor& h, const std::vector<int64_t>& rows,
                         const std::vector<int64_t>& offsets,
                         const ComputeContext* ctx = nullptr);

// Backward of the two: dh[rows[e]] += grad[s] for every position e of segment s,
// with the same bits as ScatterAddRows over a per-position matrix holding grad[s]
// (times 1.0f / count, rounded, for the mean of a segment of count > 1), which is
// never built.
void GatherSegmentSumBackward(Tensor& dh, const std::vector<int64_t>& rows,
                              const std::vector<int64_t>& offsets, const Tensor& grad,
                              const ComputeContext* ctx = nullptr);
void GatherSegmentMeanBackward(Tensor& dh, const std::vector<int64_t>& rows,
                               const std::vector<int64_t>& offsets, const Tensor& grad,
                               const ComputeContext* ctx = nullptr);

// In-place softmax over each segment of a column vector (n x 1). Used by GAT attention.
void SegmentSoftmaxInPlace(Tensor& scores, const std::vector<int64_t>& offsets,
                           const ComputeContext* ctx = nullptr);

// Backward of segment softmax: given softmax outputs p and upstream grad g (both n x 1),
// returns dscore[i] = p_i * (g_i - sum_j in seg p_j g_j).
Tensor SegmentSoftmaxBackward(const Tensor& probs, const Tensor& grad,
                              const std::vector<int64_t>& offsets,
                              const ComputeContext* ctx = nullptr);

// Activations (forward returns value; backward takes forward *output*). The
// ReLU and tanh pairs take their last operand as a sink and compute in place in
// it: a moved-in tensor is returned with no allocation, an lvalue is copied first.
Tensor Relu(Tensor t, const ComputeContext* ctx = nullptr);
Tensor ReluBackward(const Tensor& out, Tensor grad_out, const ComputeContext* ctx = nullptr);
Tensor LeakyRelu(const Tensor& t, float slope, const ComputeContext* ctx = nullptr);
Tensor LeakyReluBackward(const Tensor& out, const Tensor& grad_out, float slope,
                         const ComputeContext* ctx = nullptr);
Tensor Tanh(Tensor t, const ComputeContext* ctx = nullptr);
Tensor TanhBackward(const Tensor& out, Tensor grad_out, const ComputeContext* ctx = nullptr);

// Row-wise softmax.
Tensor RowSoftmax(const Tensor& logits, const ComputeContext* ctx = nullptr);

// Mean softmax cross-entropy over rows; labels are class ids. Returns the loss and
// writes dlogits (d loss / d logits, already divided by the number of rows). The
// loss is an ordered per-chunk reduction over row chunks.
float SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int64_t>& labels,
                          Tensor* dlogits, const ComputeContext* ctx = nullptr);

}  // namespace mariusgnn

#endif  // SRC_TENSOR_OPS_H_
