// Block storage with a deterministic performance model.
//
// The paper's disk experiments run on an EBS volume with 1 GB/s bandwidth and 10k IOPS.
// That hardware is not available here, so SimulatedDisk performs *real* file IO for
// correctness while charging every operation to a virtual clock using a simple
// latency + bandwidth model:
//
//     seconds(op, bytes) = 1/iops + bytes/bandwidth
//
// Out-of-core experiments report modeled IO seconds (overlapped with compute when
// prefetching is on), which keeps the COMET-vs-BETA comparisons deterministic and
// host-independent: the IoEngine runs each request as its own transfer, so the
// modeled seconds are a function of the request stream, never of thread timing.
// docs/ARCHITECTURE.md ("Observability") says where they are reported and that
// they are never part of a host-clock epoch time.
//
// Read/Write are thread-safe (the IoEngine issues many in-flight transfers from a
// worker pool; positional pread/pwrite need no shared cursor and the stats are
// mutex-guarded) and return the modeled seconds of the individual operation so
// concurrent callers never have to diff the global stats counter.
//
// When constructed with direct_io = true, the disk additionally opens the file
// O_DIRECT (the caller probes filesystem support first — see ProbeDirectIo in
// io_engine.h) and routes every fully aligned transfer (offset, length, and
// buffer all kIoAlignment-aligned) around the page cache; unaligned transfers
// fall back to the buffered descriptor transparently. Mixing the two descriptors
// on one file is safe: the kernel invalidates overlapping page-cache ranges on
// direct writes.
#ifndef SRC_STORAGE_DISK_H_
#define SRC_STORAGE_DISK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "src/util/binary_io.h"
#include "src/util/timer.h"

namespace mariusgnn {

struct DiskModel {
  double bandwidth_bytes_per_sec = 1e9;  // EBS gp-class volume, per the paper's setup
  double iops = 10000.0;
  uint64_t block_size = 1 << 19;  // 512 KiB: the size below which reads go random

  double SecondsFor(uint64_t bytes, uint64_t ops) const {
    return static_cast<double>(ops) / iops +
           static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }

  // Modeled seconds of an operation issued while `depth` requests are kept in
  // flight: the latency term amortises across the queue (device IOPS ratings
  // assume saturated queues — that is exactly what an SQ/CQ engine provides)
  // while the bandwidth term is a shared resource and stays serial. depth <= 1
  // degenerates to SecondsFor.
  double SecondsForAtDepth(uint64_t bytes, uint64_t ops, int depth) const {
    const double d = depth > 1 ? static_cast<double>(depth) : 1.0;
    return static_cast<double>(ops) / (iops * d) +
           static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }
};

struct DiskStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t direct_ops = 0;  // transfers that went through the O_DIRECT descriptor
  double modeled_seconds = 0.0;

  void Reset() { *this = DiskStats(); }
};

class SimulatedDisk {
 public:
  // `truncate` empties an existing file; without it the file's contents stay.
  SimulatedDisk(const std::string& path, DiskModel model = DiskModel(),
                bool direct_io = false, bool truncate = true);

  // Thread-safe; return the modeled seconds charged for this operation.
  double Read(void* dst, size_t bytes, uint64_t offset);
  double Write(const void* src, size_t bytes, uint64_t offset);
  void Resize(uint64_t bytes) { file_.Resize(bytes); }

  DiskStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.Reset();
  }
  const DiskModel& model() const { return model_; }
  // True when the O_DIRECT descriptor opened (aligned transfers bypass the cache).
  bool direct_io() const { return direct_file_ != nullptr; }

  // An IO of `bytes` issued as ceil(bytes/block) device ops, matching the model's
  // transition from sequential to random access as reads shrink (Section 6, "disk
  // access transitions from large sequential reads/writes to small random ones").
  uint64_t OpsFor(size_t bytes) const {
    return bytes == 0 ? 0 : (bytes + model_.block_size - 1) / model_.block_size;
  }

 private:
  // The direct descriptor serves a transfer only when offset, length, and the
  // user buffer all meet the O_DIRECT alignment contract.
  bool DirectEligible(const void* buf, size_t bytes, uint64_t offset) const;

  File file_;
  std::unique_ptr<File> direct_file_;  // null when unsupported or not requested
  DiskModel model_;
  mutable std::mutex stats_mu_;
  DiskStats stats_;  // guarded by stats_mu_
};

}  // namespace mariusgnn

#endif  // SRC_STORAGE_DISK_H_
