// Batched asynchronous IO engine for the partition buffer.
//
// The prefetch path used to be a single background thread issuing one synchronous
// pread per partition in FIFO order: one in-flight request, and dirty write-backs
// head-of-line-blocking the reads the next partition set needs. This engine
// replaces it with an io_uring-style submission/completion-queue structure on a
// portable thread-pool backend, so tests and CI run anywhere:
//
//  - callers submit read/write requests tagged with a partition id; a pool of
//    queue_depth IO workers keeps up to queue_depth transfers in flight;
//  - completions fire **out of order** — a slow partition no longer blocks the
//    rest of the lookahead window (the caller installs staged partitions behind
//    its own SetResident seam, so reordering never changes what is installed);
//  - per-tag program order is preserved: two requests with the same tag execute
//    in submission order, which is exactly the read-after-write /
//    write-after-read hazard rule the partition buffer needs (a prefetch read of
//    a partition queued behind its own dirty write-back always observes the
//    written data). Requests with different tags are independent byte ranges and
//    run concurrently.
//  - scheduling prioritises reads over writes (reads gate the next partition
//    set; write-backs only need to finish eventually), except that a write
//    blocking a same-tag read is elevated so the read is not starved;
//  - adjacent dirty write-backs coalesce into one larger transfer (fewer device
//    ops under the 1/iops latency model — the paper's "large sequential writes"
//    regime), bounded by kMaxCoalescedBytes.
//
// Modeled-time accounting: each completion receives the request's modeled seconds
// at the engine's queue depth (DiskModel::SecondsForAtDepth — the latency term
// amortises across a saturated queue, the bandwidth term stays serial), which is
// what the trainers fold into io_stall_seconds. ReadSync charges full undepthed
// latency: a blocking miss cannot hide behind anything.
#ifndef SRC_STORAGE_IO_ENGINE_H_
#define SRC_STORAGE_IO_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/storage/disk.h"
#include "src/util/rv_monitor.h"

namespace mariusgnn {

struct IoRequest {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  int32_t tag = -1;  // partition id; same-tag requests execute in submission order
  uint64_t offset = 0;
  size_t bytes = 0;
  void* dst = nullptr;        // read destination
  const void* src = nullptr;  // write source
};

// Counters since the last ConsumeStats (EpochStats reporting).
struct IoEngineStats {
  uint64_t read_requests = 0;
  uint64_t write_requests = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  // Write requests that were merged into an adjacent neighbour's transfer
  // instead of being issued as their own device operation.
  uint64_t coalesced_writes = 0;
  // Peak of queued + in-flight requests, and the time-weighted mean of that
  // count over the intervals where the engine was busy (wall-clock; diagnostic
  // only, never feeds determinism-sensitive paths).
  int inflight_peak = 0;
  double queue_depth_mean = 0.0;
};

struct IoEngineOptions {
  // IO worker threads == maximum transfers in flight. 1 is the legacy-equivalent
  // serial engine (still out-of-order-install capable, but one op at a time).
  int queue_depth = 4;
  // Test seam: when > 0, each device transfer is split into sub-transfers of at
  // most this many bytes, exercising the short-transfer/offset-advance path.
  size_t max_transfer_bytes = 0;
  // Test seam: invoked on the IO worker immediately before each request's
  // transfer (fault/delay injection for out-of-order completion tests).
  std::function<void(const IoRequest&)> before_io;
};

class IoEngine {
 public:
  // Invoked on an IO worker thread when the request's transfer has completed,
  // with the request's modeled seconds at this engine's queue depth.
  using Completion = std::function<void(double modeled_seconds)>;

  IoEngine(SimulatedDisk* disk, IoEngineOptions options);
  ~IoEngine();  // drains, then joins the workers

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Thread-safe. Submission order defines per-tag program order.
  void SubmitRead(int32_t tag, void* dst, size_t bytes, uint64_t offset,
                  Completion done);
  void SubmitWrite(int32_t tag, const void* src, size_t bytes, uint64_t offset,
                   Completion done);

  // Submits a read and blocks until it completes; returns full (undepthed)
  // modeled seconds. Still ordered behind any earlier same-tag write.
  double ReadSync(int32_t tag, void* dst, size_t bytes, uint64_t offset);

  // Blocks until every submitted request has completed.
  void Drain();

  IoEngineStats ConsumeStats();
  int queue_depth() const { return options_.queue_depth; }

 private:
  struct Pending {
    IoRequest req;
    Completion done;
    // Engine-wide submission sequence number; the RV tag-order monitor checks
    // that same-tag requests start executing in increasing seq.
    uint64_t seq = 0;
  };

  void WorkerLoop();
  // Claims the next executable batch (one read, or one write plus any mergeable
  // adjacent writes) honouring per-tag order and read priority. Empty when
  // nothing is currently claimable. Caller holds mu_.
  std::vector<Pending> ClaimLocked();
  void ExecuteBatch(std::vector<Pending>* batch);
  void NoteEventLocked();  // advances the queue-depth time integral

  SimulatedDisk* disk_;
  IoEngineOptions options_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // submit/complete: workers re-scan the queue
  std::condition_variable idle_cv_;  // Drain waiters
  std::deque<Pending> sq_;           // guarded by mu_
  // Claimed-but-incomplete request count per tag; a queued request may not start
  // while an earlier same-tag request is in flight. Guarded by mu_.
  std::unordered_map<int32_t, int> tag_busy_;
  int inflight_ = 0;  // requests currently executing; guarded by mu_
  bool stop_ = false;
  uint64_t next_seq_ = 0;  // submission sequence counter; guarded by mu_

  // RV monitor (io_engine.tag_order): observed at claim time under mu_, in batch
  // order — claim order is execution-start order, and coalesced batches preserve
  // per-tag submission order internally, so any scheduler bug that lets a
  // same-tag request jump an earlier one trips here.
  RvTagOrderMonitor rv_tag_order_{RvInvariant::kIoTagOrder};

  // Stats, guarded by mu_. The depth integral accumulates outstanding-request
  // count over busy wall-time intervals.
  IoEngineStats stats_;
  double depth_integral_ = 0.0;
  double busy_seconds_ = 0.0;
  std::chrono::steady_clock::time_point last_event_;

  std::vector<std::thread> workers_;
};

// Runtime probe: can `directory` host a file that supports O_DIRECT transfers?
// Creates, exercises, and removes a small probe file; false on any failure
// (tmpfs and most CI filesystems reject direct IO — callers fall back to
// buffered transfers transparently).
bool ProbeDirectIo(const std::string& directory);

}  // namespace mariusgnn

#endif  // SRC_STORAGE_IO_ENGINE_H_
