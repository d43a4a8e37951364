// Link-prediction score functions (decoders) over node representations.
//
// Training follows the Marius/DGL-KE scheme the paper uses: each positive edge
// (s, r, o) is scored against a set of shared negative nodes that corrupt the
// destination and (separately) the source; the loss is softmax cross-entropy with the
// positive in class 0, averaged over both corruption sides.
//
// Decoders implemented: DistMult (the paper's evaluation decoder), TransE and ComplEx
// (the specialised knowledge-graph models subsumed per Section 1).
#ifndef SRC_NN_DECODER_H_
#define SRC_NN_DECODER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/nn/parameter.h"
#include "src/tensor/tensor.h"
#include "src/util/compute.h"
#include "src/util/rng.h"

namespace mariusgnn {

// One side's read-only inputs to the ranking-loss kernel, and one chunk's reused
// working storage (both defined in decoder.cc).
struct RankingLossSide;
struct RankingLossScratch;

class Decoder {
 public:
  virtual ~Decoder();

  // Stage-3 parallel-compute handle. LossAndGrad splits the positive edges into
  // fixed chunks; each chunk scores and back-propagates into private gradient
  // partials that are folded in ascending chunk order, so the result is
  // bitwise-identical for any pool size (null = serial over the same chunks).
  void set_compute(const ComputeContext* compute) { compute_ = compute; }

  // Computes the mean softmax-CE ranking loss for `src_rows/dst_rows/rels` (parallel
  // arrays of edges; rows index into `reprs`) against shared negatives `neg_rows`.
  // Accumulates d loss / d reprs into *d_reprs (must be pre-sized reprs.rows() x dim)
  // and relation-parameter gradients. Returns the loss.
  float LossAndGrad(const Tensor& reprs, const std::vector<int64_t>& src_rows,
                    const std::vector<int64_t>& dst_rows, const std::vector<int32_t>& rels,
                    const std::vector<int64_t>& neg_rows, Tensor* d_reprs);

  // Scores candidates for MRR ranking: out[j] = score(fixed, rel, cand_j), or with
  // corrupt_src=true out[j] = score(cand_j, rel, fixed).
  void ScoreCandidates(const Tensor& reprs, int64_t fixed_row, int32_t rel,
                       const std::vector<int64_t>& cand_rows, bool corrupt_src,
                       std::vector<float>* out) const;

  virtual std::vector<Parameter*> Parameters() = 0;
  virtual std::string name() const = 0;

 protected:
  Decoder(int32_t num_relations, int64_t dim, float init_scale, Rng& rng);

  // score(s, r, o) for dim_-wide vectors.
  virtual float Score(const float* s, const float* r, const float* o) const = 0;

  // The ranking-loss kernel over edges [begin, end) of one side: accumulates
  // gradients into the targets `scratch` names (the real accumulators, or the
  // chunk's compact partials) and returns the unscaled loss sum. Every decoder
  // instantiates the same kernel template with its own elementwise forms.
  virtual double SideLossChunk(const RankingLossSide& side, int64_t begin, int64_t end,
                               RankingLossScratch* scratch) const = 0;

  int64_t dim_;
  Parameter rel_;  // num_relations x dim
  const ComputeContext* compute_ = nullptr;

 private:
  // One corruption side of the loss over fixed edge chunks; gradients and the
  // returned loss carry the side's scale (inv_b = scale / batch).
  float SideLossAndGrad(const RankingLossSide& side, Tensor* d_reprs);

  // The free list of chunk scratch, kept across calls. A chunk's body pops an
  // entry and its combine pushes it back with the partials zeroed, so a serial
  // loss reuses one entry, and a parallel loss keeps one per chunk live at once.
  std::unique_ptr<RankingLossScratch> PopScratch();
  void PushScratch(std::unique_ptr<RankingLossScratch> scratch);

  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<RankingLossScratch>> scratch_free_;  // guarded by scratch_mu_
  // Each chunk's entry between its body and its combine, for the current side.
  std::vector<std::unique_ptr<RankingLossScratch>> scratch_live_;
  // The negatives transposed, and every positive's score, for the current call
  // (see RankingLossSide).
  std::vector<float> neg_block_;
  std::vector<float> pos_scores_;
};

// score(s, r, o) = sum_d s_d * r_d * o_d.
class DistMultDecoder : public Decoder {
 public:
  DistMultDecoder(int32_t num_relations, int64_t dim, Rng& rng)
      : Decoder(num_relations, dim, 0.5f, rng) {}

  std::vector<Parameter*> Parameters() override { return {&rel_}; }
  std::string name() const override { return "DistMult"; }

 protected:
  float Score(const float* s, const float* r, const float* o) const override;
  double SideLossChunk(const RankingLossSide& side, int64_t begin, int64_t end,
                       RankingLossScratch* scratch) const override;
};

// score(s, r, o) = -||s + r - o||^2.
class TransEDecoder : public Decoder {
 public:
  TransEDecoder(int32_t num_relations, int64_t dim, Rng& rng)
      : Decoder(num_relations, dim, 0.5f, rng) {}

  std::vector<Parameter*> Parameters() override { return {&rel_}; }
  std::string name() const override { return "TransE"; }

 protected:
  float Score(const float* s, const float* r, const float* o) const override;
  double SideLossChunk(const RankingLossSide& side, int64_t begin, int64_t end,
                       RankingLossScratch* scratch) const override;
};

// score(s, r, o) = Re(<s, r, conj(o)>); dim must be even (first half real, second
// half imaginary).
class ComplExDecoder : public Decoder {
 public:
  ComplExDecoder(int32_t num_relations, int64_t dim, Rng& rng)
      : Decoder(num_relations, dim, 0.5f, rng) {
    MG_CHECK(dim % 2 == 0);
  }

  std::vector<Parameter*> Parameters() override { return {&rel_}; }
  std::string name() const override { return "ComplEx"; }

 protected:
  float Score(const float* s, const float* r, const float* o) const override;
  double SideLossChunk(const RankingLossSide& side, int64_t begin, int64_t end,
                       RankingLossScratch* scratch) const override;
};

std::unique_ptr<Decoder> MakeDecoder(const std::string& name, int32_t num_relations,
                                     int64_t dim, Rng& rng);

}  // namespace mariusgnn

#endif  // SRC_NN_DECODER_H_
