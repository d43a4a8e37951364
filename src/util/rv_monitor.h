// Runtime-verification (RV) monitors: cheap always-on state machines that check
// the pipeline's concurrency invariants in production builds, plus the per-epoch
// determinism hash.
//
// The out-of-core pipeline only earns its speed if the concurrency machinery
// provably preserves the batch stream. The determinism contract
// (docs/DETERMINISM.md) is enforced exhaustively by tests, but tests only cover
// the configurations they run; these monitors carry the same invariants into
// every Release binary, in the RV style (lightweight-yet-rigorous runtime
// checking, complementing exhaustive offline verification):
//
//   pipeline.ticket_order    indices PipelineSession hands to the consumer are
//                            strictly increasing (RvSequenceMonitor)
//   io_engine.tag_order      same-tag IO requests start execution in submission
//                            order — the read-after-write/write-after-read rule
//                            the partition buffer depends on (RvTagOrderMonitor)
//   comm.fold_order          cross-replica gradient reductions fold rank
//                            contributions in strictly ascending rank order —
//                            the ordered-fold rule that makes multi-replica
//                            trajectories bitwise-reproducible
//                            (RvFoldOrderMonitor)
//   comm.replica_hash        the epoch-end determinism-hash exchange found a
//                            replica whose hash disagrees with rank 0's —
//                            the replicas' trajectories diverged (reported by
//                            GradientExchange::ExchangeEpochHash)
//
// Each monitor observation is a branch or two plus one relaxed atomic load (the
// global enable flag), so the monitors stay on in Release builds;
// bench_micro_kernels measures the overhead and records it in its JSON
// (< 1% of epoch time).
//
// Violations route through a pluggable RvSink. The default sink counts and logs
// (production: a violated invariant is a bug report, not a crash); tests and CI
// install AbortRvSink so any violation dies loudly (death-test hooks). Violation
// counters are always kept, independent of the sink, and surface in EpochStats
// and the bench JSON.
//
// DeterminismHash is the cross-run comparison primitive: an ordered FNV-1a 64
// fold of each batch's loss bits, taken at the in-order consumption point, so
// serial / N-worker / prefetch-on/off / resumed / replica runs of the same epoch
// can be compared with a single u64 (recorded in EpochStats.determinism_hash and
// the checkpoint manifest's "determinism_hash" scalar).
#ifndef SRC_UTIL_RV_MONITOR_H_
#define SRC_UTIL_RV_MONITOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>

namespace mariusgnn {

enum class RvInvariant : int {
  kTicketOrder = 0,
  kIoTagOrder,
  kCommFoldOrder,
  kCommReplicaHash,
  kCount,
};

// Stable dotted name ("pipeline.ticket_order", ...); used in logs and docs.
const char* RvInvariantName(RvInvariant invariant);

struct RvViolation {
  RvInvariant invariant = RvInvariant::kTicketOrder;
  std::string detail;  // human-readable: observed vs expected
};

// Where violations go after counting. Implementations must be thread-safe to
// install process-wide; OnViolation is serialized by the runtime's sink mutex.
class RvSink {
 public:
  virtual ~RvSink();
  virtual void OnViolation(const RvViolation& violation) = 0;
};

// Production default: one LogError line per violation, training continues (the
// violation counter is the durable record).
class LoggingRvSink : public RvSink {
 public:
  void OnViolation(const RvViolation& violation) override;
};

// Test/CI sink: print and abort, so death tests (and sanitizer jobs) catch any
// invariant breach the moment it happens.
class AbortRvSink : public RvSink {
 public:
  void OnViolation(const RvViolation& violation) override;
};

// Process-wide monitor runtime: the enable flag the inline monitors poll, the
// per-invariant violation counters, and the pluggable sink.
class RvRuntime {
 public:
  static RvRuntime& Global();

  // Monitors are compiled in and enabled by default in every build type.
  // Disabling is for overhead measurement (bench_micro_kernels) and tests only.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Installs `sink` (nullptr restores the default LoggingRvSink) and returns
  // the previously installed sink (nullptr if it was the default).
  RvSink* set_sink(RvSink* sink);

  // Counts the violation, then hands it to the sink. Called by monitors on
  // whatever thread observed the breach; thread-safe.
  void Report(RvInvariant invariant, std::string detail);

  uint64_t violations(RvInvariant invariant) const;
  uint64_t TotalViolations() const;
  void ResetViolations();

 private:
  RvRuntime();

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> counts_[static_cast<int>(RvInvariant::kCount)];
  std::atomic<uint64_t> total_{0};
  std::mutex sink_mu_;
  RvSink* sink_ = nullptr;  // nullptr = default logging sink
  LoggingRvSink default_sink_;
};

// RAII sink swap for tests (restores the previous sink on scope exit).
class ScopedRvSink {
 public:
  explicit ScopedRvSink(RvSink* sink) : prev_(RvRuntime::Global().set_sink(sink)) {}
  ~ScopedRvSink() { RvRuntime::Global().set_sink(prev_); }
  ScopedRvSink(const ScopedRvSink&) = delete;
  ScopedRvSink& operator=(const ScopedRvSink&) = delete;

 private:
  RvSink* prev_;
};

// --- Monitors -----------------------------------------------------------------
//
// Each monitor instance is owned by the subsystem whose invariant it checks and
// is observed from exactly the context that already serializes the state it
// watches (the session owner thread, the engine mutex), so the
// monitors add no locking of their own.

// Strictly-increasing sequence (the pipeline's delivery order).
class RvSequenceMonitor {
 public:
  explicit RvSequenceMonitor(RvInvariant invariant) : invariant_(invariant) {}

  void Observe(int64_t index) {
    RvRuntime& rt = RvRuntime::Global();
    if (!rt.enabled()) {
      return;
    }
    if (index <= last_) {
      rt.Report(invariant_, "sequence not strictly increasing: index " +
                                std::to_string(index) + " delivered after " +
                                std::to_string(last_));
      return;  // keep the high-water mark; one breach must not cascade
    }
    last_ = index;
  }

  void Reset() { last_ = std::numeric_limits<int64_t>::min(); }

 private:
  RvInvariant invariant_;
  int64_t last_ = std::numeric_limits<int64_t>::min();
};

// Same-tag requests must start execution in submission order (different tags
// are independent and may reorder freely). Observe at execution-claim time with
// each request's submission sequence number.
class RvTagOrderMonitor {
 public:
  explicit RvTagOrderMonitor(RvInvariant invariant) : invariant_(invariant) {}

  void ObserveStart(int32_t tag, uint64_t submit_seq) {
    RvRuntime& rt = RvRuntime::Global();
    if (!rt.enabled()) {
      return;
    }
    auto [it, inserted] = last_started_.try_emplace(tag, submit_seq);
    if (inserted) {
      return;
    }
    if (submit_seq <= it->second) {
      rt.Report(invariant_, "tag " + std::to_string(tag) + ": request #" +
                                std::to_string(submit_seq) +
                                " started after same-tag request #" +
                                std::to_string(it->second));
      return;
    }
    it->second = submit_seq;
  }

  void Reset() { last_started_.clear(); }

 private:
  RvInvariant invariant_;
  std::unordered_map<int32_t, uint64_t> last_started_;
};

// Cross-replica reductions must fold rank contributions in strictly ascending
// rank order (ComputeContext's fixed-reduction-order contract, extended across
// processes): BeginReduction arms the monitor for one step's fold, ObserveFold
// checks each folded rank exceeds the previous one. Observed from the thread
// performing the fold (the coordinator's exchange call), so no locking.
class RvFoldOrderMonitor {
 public:
  explicit RvFoldOrderMonitor(RvInvariant invariant) : invariant_(invariant) {}

  void BeginReduction() { last_rank_ = -1; }

  void ObserveFold(int32_t rank) {
    RvRuntime& rt = RvRuntime::Global();
    if (!rt.enabled()) {
      return;
    }
    if (rank <= last_rank_) {
      rt.Report(invariant_, "fold order not strictly ascending: rank " +
                                std::to_string(rank) + " folded after rank " +
                                std::to_string(last_rank_));
      return;  // keep the high-water mark; one breach must not cascade
    }
    last_rank_ = rank;
  }

 private:
  RvInvariant invariant_;
  int32_t last_rank_ = -1;
};

// --- Determinism hash ---------------------------------------------------------

inline constexpr uint64_t kFnv64OffsetBasis = 14695981039346656037ULL;  // 0xCBF29CE484222325
inline constexpr uint64_t kFnv64Prime = 1099511628211ULL;               // 0x100000001B3

// Ordered FNV-1a 64 fold. The epoch hash folds each batch's mean-loss bits at
// the in-order consumption point, so the hash is a pure function of the batch
// stream: any two runs that consumed bitwise-identical losses in the same order
// produce the same u64, and any silent stream change flips it.
class DeterminismHash {
 public:
  void Fold(const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    uint64_t h = h_;
    for (size_t i = 0; i < len; ++i) {
      h ^= static_cast<uint64_t>(p[i]);
      h *= kFnv64Prime;
    }
    h_ = h;
  }

  // Folds the IEEE-754 bit pattern (host byte order, like every on-disk format
  // in this repo) — 0.0f vs -0.0f and every NaN payload are distinct.
  void FoldFloat(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Fold(&bits, sizeof(bits));
  }

  void FoldU64(uint64_t v) { Fold(&v, sizeof(v)); }

  uint64_t value() const { return h_; }
  void Reset() { h_ = kFnv64OffsetBasis; }

 private:
  uint64_t h_ = kFnv64OffsetBasis;
};

}  // namespace mariusgnn

#endif  // SRC_UTIL_RV_MONITOR_H_
