// Gradient-exchange seam: every gradient a trainer produces — the dense
// GNN/decoder parameter gradients and the touched-row sparse embedding
// gradients — flows through a GradientExchange before the optimizer applies it.
//
// The seam is what makes multi-replica data-parallel training a storage/comm
// concern instead of a trainer concern. Following the BytePS dense/sparse
// split, dense parameters take an allreduce-style ordered fold (the same
// fixed-reduction-order contract ComputeContext enforces within a process,
// extended across ranks), while sparse embedding gradients exchange only the
// touched rows, merged in ascending rank order.
//
// Two implementations:
//  - LocalExchange: the world_size == 1 identity. Zero-copy — the reduced step
//    aliases the caller's tensors and the dense result is "apply p.grad in
//    place", so single-replica trajectories through the seam are bitwise
//    identical to the pre-seam code path (the golden-trajectory tests pin this).
//  - ProcessGroupExchange (process_group_exchange.h): N processes over
//    localhost TCP in a star around rank 0; each rank sends its contribution
//    on the calling thread, then ordered-fold reduce → broadcast → apply.
//    Every rank applies the identical broadcast bytes, so replicas stay
//    bitwise-identical and end every epoch with the same determinism hash
//    (checked by ExchangeEpochHash; docs/DISTRIBUTED.md).
//
// Loss sharing rides the same exchange: each rank contributes its batch's mean
// loss, and the reduced step carries every rank's loss in ascending rank order
// — the global batch order — so all replicas fold the identical loss stream
// into their determinism hash and epoch-loss accumulator.
#ifndef SRC_COMM_GRADIENT_EXCHANGE_H_
#define SRC_COMM_GRADIENT_EXCHANGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/nn/parameter.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace mariusgnn {

// Multi-replica data-parallel training (docs/DISTRIBUTED.md): world_size
// processes run the same config and graph; rank r consumes the global batch
// indices g with g % world_size == r, and every gradient flows through the
// exchange before the optimizer applies it. The defaults select the
// single-replica LocalExchange.
struct ReplicaOptions {
  int32_t rank = 0;
  int32_t world_size = 1;
  // Transport for world_size > 1: rank 0 listens on host:port (localhost TCP)
  // and every other rank connects, retrying until connect_timeout_seconds.
  // port 0 is rejected unless listen_fd supplies the socket.
  std::string host = "127.0.0.1";
  int32_t port = 0;
  double connect_timeout_seconds = 20.0;
  // Test seam: an already-bound-and-listening socket fd that rank 0 adopts
  // (fork-based tests bind port 0 before forking, so the chosen port can never
  // collide with another process). -1 = bind host:port normally.
  int32_t listen_fd = -1;
};

// Comm accounting drained by ConsumeStats. Every exchange runs on the training
// thread, so blocking_seconds — the time spent inside Exchange,
// ExchangeEpochHash and Barrier — is all of the comm time.
struct CommStats {
  double blocking_seconds = 0.0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

// One rank's contribution to one exchange step. When the global batch count is
// not divisible by world_size, trailing steps on batchless ranks participate
// with has_batch = false (no gradients, no loss) so every rank performs the
// same number of exchanges per segment and applies the same reduced updates.
struct GradientStep {
  bool has_batch = true;
  float loss = 0.0f;
  // Dense parameters whose .grad holds this batch's gradient (null or empty
  // when has_batch is false).
  const std::vector<Parameter*>* dense = nullptr;
  // Touched-row sparse embedding gradient: sparse_grads row i is the gradient
  // for node sparse_nodes[i]. Null when the task has no sparse table.
  const std::vector<int64_t>* sparse_nodes = nullptr;
  const Tensor* sparse_grads = nullptr;
};

// The reduction every rank applies after one exchange step. Pointer members
// alias buffers owned by the exchange (or, for LocalExchange, the caller's
// GradientStep); they stay valid until the next Exchange call.
struct ReducedStep {
  // Per-rank mean losses in ascending rank order and whether each rank had a
  // batch this step; ranks fold exactly the contributed losses, in order.
  std::vector<float> losses;
  std::vector<uint8_t> contributed;
  // Summed dense gradients in parameter order. nullptr means "apply each
  // parameter's own .grad in place" (the LocalExchange zero-copy identity).
  const std::vector<Tensor>* dense = nullptr;
  // Merged touched rows: per-node sums folded in ascending rank order, node
  // list deduplicated in first-touch order. Null/empty when no rank touched
  // sparse rows this step.
  const std::vector<int64_t>* sparse_nodes = nullptr;
  const Tensor* sparse_grads = nullptr;
};

class GradientExchange {
 public:
  virtual ~GradientExchange();

  virtual int32_t rank() const = 0;
  virtual int32_t world() const = 0;

  // Contributes this rank's step and returns the reduction every rank must
  // apply. Blocks until the reduction is available; collective — all ranks
  // must call it the same number of times per segment. The returned reference
  // is invalidated by the next Exchange call.
  virtual const ReducedStep& Exchange(const GradientStep& step) = 0;

  // Epoch-end cross-replica determinism check: gathers every rank's epoch
  // hash, reports a comm.replica_hash RV violation on any disagreement with
  // rank 0, and returns rank 0's hash. Identity for world == 1.
  virtual uint64_t ExchangeEpochHash(uint64_t local_hash) = 0;

  // Rendezvous barrier: no rank returns until every rank has entered. The
  // shared-storage write-back contract rides on it — each rank drains its own
  // async partition write-backs and then calls Barrier() before any rank
  // re-reads a just-evicted partition from the shared file, so a reader can
  // never observe a stale or torn partition image. Collective — all ranks
  // must make matched calls. No-op identity for world == 1.
  virtual void Barrier() {}

  // Drains the accumulated comm accounting (resets to zero).
  CommStats ConsumeStats();

 protected:
  CommStats stats_;
};

// world_size == 1 identity: the reduced step aliases the caller's GradientStep
// and leaves dense == nullptr so the optimizer applies p.grad with no copy.
class LocalExchange : public GradientExchange {
 public:
  int32_t rank() const override { return 0; }
  int32_t world() const override { return 1; }
  const ReducedStep& Exchange(const GradientStep& step) override;
  uint64_t ExchangeEpochHash(uint64_t local_hash) override { return local_hash; }

 private:
  ReducedStep result_;
};

// Builds the exchange for `options`: LocalExchange when world_size == 1,
// ProcessGroupExchange otherwise (construction blocks until all ranks connect).
std::unique_ptr<GradientExchange> CreateGradientExchange(
    const ReplicaOptions& options);

// The one batch-index → replica/seed derivation both trainers share, so rank
// partitioning cannot drift between them: global batch g is consumed by rank
// g % world, rank r's l-th local batch is g = l * world + r, and the batch's
// RNG stream is MixSeed(run_seed, g). world == 1 collapses to g == l — the
// historical single-consumer derivation, bit for bit.
struct ReplicaBatchPartition {
  int32_t rank = 0;
  int32_t world = 1;

  int64_t GlobalIndex(int64_t local_index) const {
    return local_index * world + rank;
  }

  // Batches this rank consumes out of `global_batches`.
  int64_t LocalCount(int64_t global_batches) const {
    if (global_batches <= rank) {
      return 0;
    }
    return (global_batches - 1 - rank) / world + 1;
  }

  // Exchange steps every rank must perform for `global_batches` (== rank 0's
  // LocalCount; ranks short of this run trailing has_batch=false steps).
  int64_t StepCount(int64_t global_batches) const {
    return (global_batches + world - 1) / world;
  }

  static uint64_t BatchSeed(uint64_t run_seed, int64_t global_index) {
    return MixSeed(run_seed, static_cast<uint64_t>(global_index));
  }
};

}  // namespace mariusgnn

#endif  // SRC_COMM_GRADIENT_EXCHANGE_H_
