// Multi-process gradient exchange over localhost TCP (docs/DISTRIBUTED.md).
//
// Topology is a star around rank 0: the coordinator accepts world-1
// connections at construction; every step, each rank ships its contribution
// (loss + dense grads + touched sparse rows), the coordinator folds them in
// ascending rank order (comm.fold_order monitored), and broadcasts one reduced
// step that every rank — coordinator included — applies byte-identically.
//
// Every frame is serialized and sent on the calling thread. A follower's
// Exchange sends its contribution and then blocks receiving the reduced step,
// which rank 0 cannot produce before that contribution arrives, so a
// background sender would overlap no work. Any transport failure (peer died,
// connection dropped) fails loudly via MG_CHECK before anything is applied — a
// step is applied in full on every rank or the process aborts; there is no
// partial apply.
#ifndef SRC_COMM_PROCESS_GROUP_EXCHANGE_H_
#define SRC_COMM_PROCESS_GROUP_EXCHANGE_H_

#include <cstdint>
#include <vector>

#include "src/comm/gradient_exchange.h"
#include "src/util/rv_monitor.h"

namespace mariusgnn {

// One rank's deserialized contribution to a step reduction (the coordinator's
// working form; exposed for the ordered-fold tests).
struct StepContribution {
  int32_t rank = 0;
  bool has_batch = false;
  float loss = 0.0f;
  std::vector<std::vector<float>> dense;  // per parameter, raw gradient data
  std::vector<int64_t> sparse_nodes;
  std::vector<float> sparse_grads;  // sparse_nodes.size() x sparse_dim
  int64_t sparse_dim = 0;
};

// The coordinator's fold product (serialized into the broadcast).
struct FoldedStep {
  std::vector<float> losses;         // ascending rank order
  std::vector<uint8_t> contributed;  // ascending rank order
  std::vector<std::vector<float>> dense;
  std::vector<int64_t> sparse_nodes;  // first-touch order of the ascending fold
  std::vector<float> sparse_grads;
  int64_t sparse_dim = 0;
};

// Folds `contributions` in ascending RANK order — independent of the
// container's (arrival) order, which is what makes the reduction deterministic
// across send-order permutations. Dense gradients sum parameter-wise starting
// from the lowest contributing rank's buffer; sparse rows merge per node
// (first-touch node order, per-row sums in rank order). `monitor` observes
// each folded rank so comm.fold_order catches any ordering bug.
FoldedStep OrderedFold(const std::vector<StepContribution>& contributions,
                       int32_t world, RvFoldOrderMonitor* monitor);

// Wire codecs for the two payload shapes (exposed for the protocol-hardening
// tests). The parsers validate every on-wire length and element count against
// the remaining payload before sizing anything from it, and MG_CHECK-abort
// ("truncated message") on corrupt or desynced frames instead of allocating.
std::vector<uint8_t> SerializeContribution(const GradientStep& step);
StepContribution ParseContribution(const std::vector<uint8_t>& payload,
                                   int32_t rank);
std::vector<uint8_t> SerializeFolded(const FoldedStep& folded);
FoldedStep ParseFolded(const std::vector<uint8_t>& payload, int32_t world);

class ProcessGroupExchange : public GradientExchange {
 public:
  // Blocks until all world_size ranks are connected (rank 0 accepts, others
  // connect with retry up to options.connect_timeout_seconds).
  explicit ProcessGroupExchange(const ReplicaOptions& options);
  ~ProcessGroupExchange() override;

  int32_t rank() const override { return rank_; }
  int32_t world() const override { return world_; }
  const ReducedStep& Exchange(const GradientStep& step) override;
  uint64_t ExchangeEpochHash(uint64_t local_hash) override;
  void Barrier() override;

 private:
  void ConnectStar(const ReplicaOptions& options);
  // Coordinator: receive world-1 contributions, ordered-fold with own step,
  // broadcast the result; every rank then loads folded_/result_ from it.
  void CoordinateStep(const GradientStep& step);
  void LoadResultFromFolded();

  // Framed blocking socket IO, counted into stats_; MG_CHECK-aborts on short
  // reads/writes so a dropped peer can never yield a partial apply.
  void SendFrame(int fd, uint32_t kind, const std::vector<uint8_t>& payload);
  std::vector<uint8_t> RecvFrame(int fd, uint32_t expect_kind);

  int32_t rank_ = 0;
  int32_t world_ = 1;
  // rank != 0: peers_[0] is the coordinator socket. rank 0: peers_[r] is the
  // socket to rank r (index 0 unused).
  std::vector<int> peers_;

  RvFoldOrderMonitor fold_monitor_{RvInvariant::kCommFoldOrder};

  // Current step's reduction, rebuilt by each Exchange call.
  FoldedStep folded_;
  std::vector<Tensor> result_dense_;
  std::vector<int64_t> result_nodes_;
  Tensor result_grads_;
  ReducedStep result_;
};

}  // namespace mariusgnn

#endif  // SRC_COMM_PROCESS_GROUP_EXCHANGE_H_
