// Partition buffer: holds `capacity` physical node partitions of per-node vector data
// (base representations and, when learnable, their Adagrad state) in CPU memory, backed
// by a SimulatedDisk file laid out partition-by-partition.
//
// This is the storage-layer component of Figure 2: the replacement policy decides which
// partitions are resident; the processing layer reads/writes rows of resident
// partitions by global node id. Dirty partitions are written back on eviction.
//
// Every partition transfer goes through a batched IO engine (io_engine.h), so
// partition IO can overlap with compute (the paper's "hide the IO" pipeline stage):
//  - Prefetch() submits reads for upcoming partitions (OrderingPolicy::Lookahead
//    tells the trainer which) into 4 KiB-aligned arena slots; the engine keeps up
//    to queue_depth transfers in flight and completions land **out of order** — a
//    slow partition no longer head-of-line-blocks the rest of the window;
//  - SetResident() installs staged partitions with a memcpy instead of a blocking
//    disk read, and pushes dirty-eviction write-backs off the critical path;
//  - ConsumeBackgroundIoSeconds() reports the modeled seconds of that background
//    IO so trainers can account stalls as max(0, background_io - compute).
// A caller that wants no overlap skips Prefetch and calls DrainIo() after
// SetResident. Ordering safety does not rely on a FIFO queue: the engine
// preserves per-tag (per-partition) program order, so a read submitted after a
// write-back of the same partition always observes the written data, while
// transfers for different partitions proceed concurrently.
//
// On-disk layout: each partition owns a fixed extent of streams (values, then
// optional Adagrad state), each stream padded to kIoAlignment. The padding is
// what O_DIRECT needs: every engine transfer starts and ends on an aligned
// offset, so it is eligible for the direct descriptor.
#ifndef SRC_STORAGE_PARTITION_BUFFER_H_
#define SRC_STORAGE_PARTITION_BUFFER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/graph/partition.h"
#include "src/storage/disk.h"
#include "src/storage/io_arena.h"
#include "src/storage/io_engine.h"
#include "src/tensor/tensor.h"
#include "src/util/check.h"

namespace mariusgnn {

// How a buffer takes its backing file. kCreate truncates the file and seeds the
// layout. kAttach opens the file another replica creates over a shared storage
// dir and writes nothing to it: no read through the buffer may start before that
// replica's seed is complete (the trainer orders it with a
// GradientExchange::Barrier).
enum class BackingFile { kCreate, kAttach };

class PartitionBuffer {
 public:
  // `learnable` adds a parallel Adagrad accumulator stream persisted next to the
  // values. `init` seeds the on-disk values (rows indexed by global node id); pass
  // nullptr to zero-initialise; a kAttach buffer ignores it. `io` configures the
  // IO engine.
  PartitionBuffer(const Partitioning* partitioning, int64_t dim, int32_t capacity,
                  const std::string& path, DiskModel model, bool learnable,
                  const Tensor* init, IoEngineOptions io = IoEngineOptions(),
                  BackingFile backing = BackingFile::kCreate);
  ~PartitionBuffer();

  PartitionBuffer(const PartitionBuffer&) = delete;
  PartitionBuffer& operator=(const PartitionBuffer&) = delete;

  int32_t capacity() const { return capacity_; }
  int64_t dim() const { return dim_; }
  bool learnable() const { return learnable_; }

  bool IsResident(int32_t partition) const {
    return slot_of_partition_[static_cast<size_t>(partition)] >= 0;
  }

  // Makes exactly `partitions` resident (evicting others, loading missing ones) and
  // returns the modeled IO seconds spent *synchronously* — staged partitions install
  // without disk reads and dirty evictions write back in the background (their
  // modeled seconds surface via ConsumeBackgroundIoSeconds). |partitions| must be
  // <= capacity.
  double SetResident(const std::vector<int32_t>& partitions);

  // Asynchronously stages `partitions` (skipping resident / already-staged ones) so
  // a later SetResident installs them without blocking on disk. Returns
  // immediately.
  void Prefetch(const std::vector<int32_t>& partitions);

  // Modeled seconds of background IO (prefetch reads + async write-backs) completed
  // since the last call.
  double ConsumeBackgroundIoSeconds();

  // Engine transfer counters since the last call (EpochStats reporting).
  IoEngineStats ConsumeIoStats();

  // Flushes all dirty partitions to disk (draining pending background IO first);
  // returns modeled IO seconds of the synchronous flush.
  double FlushAll();

  // Multi-replica ownership map (one byte per physical partition, nonzero =
  // this replica writes it back). Dirty evictions of unowned partitions are
  // skipped: with replicas sharing one backing file over a common storage dir,
  // every replica holds identical state, so only the owner's write-back is
  // needed and concurrent redundant writes are avoided. Only safe with SHARED
  // backing storage — with a private per-rank file a skipped write-back would
  // leave stale rows for this rank's own later reads. Empty (the default)
  // means this replica owns everything.
  void SetPartitionOwnership(std::vector<uint8_t> owned) {
    MG_CHECK_MSG(owned.size() ==
                     static_cast<size_t>(partitioning_->num_partitions()),
                 "ownership map size does not match the partition count");
    ownership_ = std::move(owned);
  }
  bool OwnsPartition(int32_t partition) const {
    return ownership_.empty() ||
           ownership_[static_cast<size_t>(partition)] != 0;
  }
  // True when an ownership map has partitioned write-backs across replicas —
  // i.e. the buffer is in shared-storage multi-replica mode and readers need
  // the cross-replica write-back barrier (see GradientExchange::Barrier).
  bool partition_ownership_active() const { return !ownership_.empty(); }

  // Blocks until every already-submitted async IO request (prefetch reads and
  // dirty write-backs) has completed. This is the local half of the
  // shared-storage write-back barrier: drain own writes, then rendezvous, then
  // it is safe for any replica to re-read.
  void DrainIo();

  // Row access by global node id; the node's partition must be resident.
  float* ValueRow(int64_t node);
  const float* ValueRow(int64_t node) const;
  float* StateRow(int64_t node);  // Adagrad accumulator row (learnable only)

  // Safe to call concurrently from compute worker threads (the sharded sparse
  // Adagrad marks dirty inside its parallel chunks): the per-slot flags are whole
  // bytes written with relaxed atomic stores — unlike the bit-packed vector<bool>
  // this replaces, two threads marking different slots never touch the same byte,
  // and marking the same slot twice is an idempotent store. The parallel region's
  // join (ForEachChunk) publishes the flags before any eviction reads them.
  void MarkDirty(int64_t node) {
    const int32_t part = partitioning_->PartitionOf(node);
    const int32_t slot = slot_of_partition_[static_cast<size_t>(part)];
    MG_CHECK_MSG(slot >= 0, "MarkDirty: node's partition is not resident");
    dirty_[static_cast<size_t>(slot)].store(1, std::memory_order_relaxed);
  }

  // Nodes of all resident partitions (used to bound negative sampling to in-memory
  // data and to rebuild the in-memory edge index).
  std::vector<int64_t> ResidentNodes() const;
  std::vector<int32_t> ResidentPartitions() const;

  // Snapshot of device-level counters (thread-safe; the engine may be mid-flight).
  DiskStats disk_stats() const { return disk_->stats(); }
  void ResetDiskStats() { disk_->ResetStats(); }

  // Reads the full on-disk table into a num_nodes x dim tensor indexed by global node
  // id (for post-training evaluation). Flushes dirty partitions first.
  Tensor ExportAll();

  // Same, for the Adagrad accumulator stream (learnable buffers only). Together
  // with ExportAll this is the checkpoint image of the embedding table.
  Tensor ExportAllState();

  // Streams one partition out (the streaming checkpoint writer's unit of work):
  // copies the partition's rows, in partition-local order, into the caller's
  // buffers — each at least PartitionSize(partition) * dim floats — without
  // materialising the full table. Resident partitions flush through directly
  // from buffer memory (dirty or not — no eviction, so residency and the
  // training trajectory are untouched); evicted ones are read through the
  // engine, which keeps the read ordered behind any in-flight write-back of the
  // same partition. Pass nullptr to skip a stream; `state_out` requires a
  // learnable buffer. Returns modeled synchronous IO seconds.
  double ExportPartition(int32_t partition, float* values_out, float* state_out);

  // Prepares a partition-by-partition overwrite of the on-disk table (streaming
  // checkpoint restore): flushes + evicts every slot and discards staged
  // prefetches of the soon-to-be-stale data. Call once, then ImportPartition
  // for each partition before the next SetResident.
  void BeginImport();

  // Overwrites one partition's on-disk streams with rows in partition-local
  // order — the inverse of ExportPartition. `state` must be non-null iff the
  // buffer is learnable. Only valid after BeginImport (nothing resident).
  void ImportPartition(int32_t partition, const float* values, const float* state);

 private:
  // A prefetched partition parked between the IO engine and installation: one
  // arena slot holding the partition's full on-disk extent (both streams, padded
  // layout — see PartitionFileOffset).
  struct StagedPartition {
    float* extent = nullptr;  // owned by arena_ until installed or discarded
  };
  // In-flight prefetch bookkeeping (guarded by stage_mu_).
  struct StagingInFlight {
    float* extent = nullptr;
  };

  uint64_t PartitionFileOffset(int32_t partition) const;
  // Bytes of one stream's payload for `partition` (actual rows, no padding).
  size_t StreamPayloadBytes(int32_t partition) const;
  // Bytes the engine transfers for `partition`: both streams at padded stride,
  // trailing stream aligned up. Always kIoAlignment-aligned.
  size_t ExtentTransferBytes(int32_t partition) const;
  Tensor ExportStream(bool state_stream);
  double LoadIntoSlot(int32_t partition, int32_t slot);
  double EvictSlot(int32_t slot, bool synchronous);
  int64_t SlotRowOf(int64_t node) const;
  int32_t FindFreeSlot() const;
  void InstallIntoSlot(int32_t partition, int32_t slot, const float* extent);
  // Drops staged extents for partitions not in `wanted` (stale lookahead after a
  // mid-epoch resize), returning their arena slots. Caller holds stage_mu_.
  void DiscardStaleStagedLocked(const std::unordered_set<int32_t>& wanted);

  const Partitioning* partitioning_;
  int64_t dim_;
  int32_t capacity_;
  bool learnable_;
  int64_t max_partition_rows_ = 0;
  // Padded on-disk geometry (see file-layout comment above).
  size_t stream_bytes_ = 0;      // max_partition_rows_ * dim_ * sizeof(float)
  size_t stream_bytes_pad_ = 0;  // AlignUpIo(stream_bytes_)
  size_t partition_extent_ = 0;  // streams * stream_bytes_pad_
  std::unique_ptr<SimulatedDisk> disk_;
  // Buffer storage: capacity_ slots of max_partition_rows_ rows each. Values and
  // (optionally) Adagrad state share slot geometry.
  AlignedBuffer values_;
  AlignedBuffer state_;
  std::vector<int32_t> partition_in_slot_;  // -1 = free
  std::vector<int32_t> slot_of_partition_;  // -1 = not resident
  // Per-slot dirty flags, one byte per slot so worker threads can mark without
  // data races (see MarkDirty). Owned array rather than vector<atomic> because
  // atomics are neither copyable nor movable element-wise.
  std::unique_ptr<std::atomic<uint8_t>[]> dirty_;
  // Per-partition write-back ownership (see SetPartitionOwnership); empty =
  // own everything.
  std::vector<uint8_t> ownership_;

  // Async IO state. Declaration order matters: the engine destructor drains
  // in-flight completions, which release arena slots and touch stage_mu_ — so
  // engine_ is declared after (and destroyed before) arena_ and the staging
  // state.
  std::mutex stage_mu_;
  std::condition_variable stage_cv_;
  std::unordered_map<int32_t, StagedPartition> staged_;        // guarded by stage_mu_
  std::unordered_map<int32_t, StagingInFlight> staging_in_flight_;  // guarded by stage_mu_
  double background_seconds_ = 0.0;                            // guarded by stage_mu_
  std::unique_ptr<IoArena> arena_;
  std::unique_ptr<IoEngine> engine_;
};

}  // namespace mariusgnn

#endif  // SRC_STORAGE_PARTITION_BUFFER_H_
