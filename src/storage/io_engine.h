// Asynchronous IO engine for the partition buffer: an io_uring-style
// submission/completion-queue structure on a portable thread-pool backend, so
// tests and CI run anywhere.
//
//  - callers submit read/write requests tagged with a partition id; a pool of
//    queue_depth IO workers keeps up to queue_depth transfers in flight;
//  - completions fire **out of order** — a slow partition does not block the
//    rest of the lookahead window (the caller installs staged partitions behind
//    its own SetResident seam, so reordering never changes what is installed);
//  - one scheduling rule, per-partition FIFO: a worker takes the first queued
//    request whose tag has nothing in flight and nothing queued ahead of it,
//    and runs it as its own transfer. Two requests with the same tag therefore
//    execute in submission order, which is exactly the read-after-write /
//    write-after-read hazard rule the partition buffer needs (a prefetch read
//    of a partition queued behind its own dirty write-back always observes the
//    written data). Requests with different tags are independent byte ranges
//    and run concurrently.
//
// Modeled-time accounting: each completion receives the request's modeled seconds
// at the engine's queue depth (DiskModel::SecondsForAtDepth — the latency term
// amortises across a saturated queue, the bandwidth term stays serial), which is
// what the trainers fold into io_stall_seconds. One request is one transfer, so
// the modeled seconds depend only on the request stream, never on thread timing.
// ReadSync charges full undepthed latency: a blocking miss cannot hide behind
// anything.
#ifndef SRC_STORAGE_IO_ENGINE_H_
#define SRC_STORAGE_IO_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
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
  // Peak of queued + in-flight requests, and the time-weighted mean of that
  // count over the intervals where the engine was busy (wall-clock; diagnostic
  // only, never feeds determinism-sensitive paths).
  int inflight_peak = 0;
  double queue_depth_mean = 0.0;
};

struct IoEngineOptions {
  // IO worker threads == maximum transfers in flight. 1 is the serial engine
  // (still out-of-order-install capable, but one op at a time).
  int queue_depth = 4;
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
  // Claims the first queued request whose tag has nothing in flight and nothing
  // queued ahead of it; nullopt when every queued request is ordered behind an
  // in-flight one. Caller holds mu_.
  std::optional<Pending> ClaimLocked();
  void Execute(const Pending& p);
  void NoteEventLocked();  // advances the queue-depth time integral

  SimulatedDisk* disk_;
  IoEngineOptions options_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // submit/stop: idle workers re-scan the queue
  std::condition_variable idle_cv_;  // Drain waiters
  std::deque<Pending> sq_;           // guarded by mu_
  // Tags with a request in flight. A queued request may not start while an
  // earlier same-tag request is in flight, so each tag has at most one and the
  // set's size is the in-flight request count. Guarded by mu_.
  std::unordered_set<int32_t> busy_tags_;
  bool stop_ = false;
  uint64_t next_seq_ = 0;  // submission sequence counter; guarded by mu_

  // RV monitor (io_engine.tag_order): observed at claim time under mu_. Claim
  // order is execution-start order, so any scheduler bug that lets a same-tag
  // request jump an earlier one trips here.
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
