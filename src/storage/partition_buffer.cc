#include "src/storage/partition_buffer.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace mariusgnn {

namespace {

// Arena size, in partition extents: the `capacity` resident slots, plus, at
// worst, one full buffer of staged reads, one of stale prefetches awaiting
// discard, and one of evicted extents whose write-backs are in flight, plus a
// request per IO worker. Only the trainer thread calls Acquire (IO workers only
// Release), so the bound is about memory, not liveness; and the arena's LIFO
// free list hands back the most recently released extent first, so the set of
// extents ever touched stays near the working set rather than the pool size.
int ArenaSlots(int32_t capacity, int queue_depth) {
  return 4 * capacity + queue_depth;
}

std::string DirName(const std::string& path) {
  const size_t pos = path.rfind('/');
  if (pos == std::string::npos) {
    return ".";
  }
  return pos == 0 ? "/" : path.substr(0, pos);
}

}  // namespace

PartitionBuffer::PartitionBuffer(const Partitioning* partitioning, int64_t dim,
                                 int32_t capacity, const std::string& path,
                                 DiskModel model, bool learnable, const Tensor* init,
                                 IoEngineOptions io, BackingFile backing)
    : partitioning_(partitioning),
      dim_(dim),
      capacity_(capacity),
      learnable_(learnable) {
  const int32_t p = partitioning_->num_partitions();
  MG_CHECK(capacity_ >= 1 && capacity_ <= p);
  for (int32_t i = 0; i < p; ++i) {
    max_partition_rows_ = std::max(max_partition_rows_, partitioning_->PartitionSize(i));
  }
  stream_bytes_ =
      static_cast<size_t>(max_partition_rows_) * static_cast<size_t>(dim_) * sizeof(float);
  stream_bytes_pad_ = AlignUpIo(stream_bytes_);
  partition_extent_ = (learnable_ ? 2 : 1) * stream_bytes_pad_;

  const bool direct = ProbeDirectIo(DirName(path));
  const bool create = backing == BackingFile::kCreate;
  disk_ = std::make_unique<SimulatedDisk>(path, model, direct, /*truncate=*/create);

  slot_extent_.assign(static_cast<size_t>(capacity_), nullptr);
  partition_in_slot_.assign(static_cast<size_t>(capacity_), -1);
  slot_of_partition_.assign(static_cast<size_t>(p), -1);
  dirty_ = std::make_unique<std::atomic<uint8_t>[]>(static_cast<size_t>(capacity_));
  for (int32_t slot = 0; slot < capacity_; ++slot) {
    dirty_[static_cast<size_t>(slot)].store(0, std::memory_order_relaxed);
  }

  // Seed the on-disk layout: each partition owns a fixed extent of
  // kIoAlignment-padded streams (values, then optional Adagrad state). A kAttach
  // buffer leaves the layout its creator seeds untouched.
  if (create) {
    disk_->Resize(static_cast<uint64_t>(p) * partition_extent_);
    std::vector<float> scratch(static_cast<size_t>(max_partition_rows_) * dim_, 0.0f);
    for (int32_t part = 0; part < p; ++part) {
      if (init != nullptr) {
        const auto& nodes = partitioning_->NodesIn(part);
        for (size_t k = 0; k < nodes.size(); ++k) {
          std::memcpy(&scratch[k * static_cast<size_t>(dim_)], init->RowPtr(nodes[k]),
                      static_cast<size_t>(dim_) * sizeof(float));
        }
      }
      disk_->Write(scratch.data(), StreamPayloadBytes(part), PartitionFileOffset(part));
      if (init == nullptr) {
        break;  // File is zero-filled by Resize; no need to write every partition.
      }
    }
  }
  // Adagrad state starts at zero; Resize already zero-filled it.
  disk_->ResetStats();

  arena_ = std::make_unique<IoArena>(partition_extent_,
                                     ArenaSlots(capacity_, io.queue_depth));
  engine_ = std::make_unique<IoEngine>(disk_.get(), std::move(io));
}

PartitionBuffer::~PartitionBuffer() {
  // Drain + join the engine before the staging state its completions touch goes
  // away, then hand staged and resident extents back so the arena's leak check
  // passes.
  engine_.reset();
  for (auto& entry : staged_) {
    arena_->Release(entry.second);
  }
  staged_.clear();
  for (float* extent : slot_extent_) {
    if (extent != nullptr) {
      arena_->Release(extent);
    }
  }
}

uint64_t PartitionBuffer::PartitionFileOffset(int32_t partition) const {
  return static_cast<uint64_t>(partition) * partition_extent_;
}

size_t PartitionBuffer::StreamPayloadBytes(int32_t partition) const {
  return static_cast<size_t>(partitioning_->PartitionSize(partition)) *
         static_cast<size_t>(dim_) * sizeof(float);
}

size_t PartitionBuffer::ExtentTransferBytes(int32_t partition) const {
  // Leading streams at padded stride, trailing stream rounded up to alignment:
  // the transfer stays inside the partition's extent and is O_DIRECT-eligible.
  const size_t streams = learnable_ ? 2 : 1;
  return (streams - 1) * stream_bytes_pad_ + AlignUpIo(StreamPayloadBytes(partition));
}

double PartitionBuffer::BlockingSeconds(size_t bytes) const {
  return disk_->model().SecondsFor(bytes, disk_->OpsFor(bytes));
}

size_t PartitionBuffer::EvictSlot(int32_t slot, bool background) {
  const int32_t partition = partition_in_slot_[static_cast<size_t>(slot)];
  if (partition < 0) {
    return 0;
  }
  float* extent = std::exchange(slot_extent_[static_cast<size_t>(slot)], nullptr);
  size_t bytes = 0;
  if (dirty_[static_cast<size_t>(slot)].load(std::memory_order_relaxed) != 0 &&
      OwnsPartition(partition)) {
    // The slot's extent is already in the on-disk layout: one transfer covers
    // both streams, queued behind any earlier request for the same partition.
    // The slot itself is free at once; the extent stays in use until written.
    bytes = ExtentTransferBytes(partition);
    engine_->SubmitWrite(partition, extent, bytes, PartitionFileOffset(partition),
                         [this, extent, background](double modeled_seconds) {
                           if (background) {
                             std::lock_guard<std::mutex> lock(stage_mu_);
                             background_seconds_ += modeled_seconds;
                           }
                           arena_->Release(extent);
                         });
  } else {
    arena_->Release(extent);
  }
  slot_of_partition_[static_cast<size_t>(partition)] = -1;
  partition_in_slot_[static_cast<size_t>(slot)] = -1;
  dirty_[static_cast<size_t>(slot)].store(0, std::memory_order_relaxed);
  return bytes;
}

int32_t PartitionBuffer::FindFreeSlot() const {
  for (int32_t slot = 0; slot < capacity_; ++slot) {
    if (partition_in_slot_[static_cast<size_t>(slot)] < 0) {
      return slot;
    }
  }
  return -1;
}

bool PartitionBuffer::StageRead(int32_t partition, bool background) {
  if (IsResident(partition)) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    if (staged_.count(partition) != 0 || staging_in_flight_.count(partition) != 0) {
      return false;
    }
  }
  // Acquire outside stage_mu_: it may block until a completion releases an
  // extent, and completions take stage_mu_. Only this (trainer) thread inserts
  // staging entries, so the check above cannot race with another StageRead.
  float* extent = arena_->Acquire();
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    staging_in_flight_.insert(partition);
  }
  engine_->SubmitRead(
      partition, extent, ExtentTransferBytes(partition), PartitionFileOffset(partition),
      [this, partition, extent, background](double modeled_seconds) {
        {
          std::lock_guard<std::mutex> lock(stage_mu_);
          staged_.emplace(partition, extent);
          staging_in_flight_.erase(partition);
          if (background) {
            background_seconds_ += modeled_seconds;
          }
        }
        stage_cv_.notify_all();
      });
  return true;
}

void PartitionBuffer::Prefetch(const std::vector<int32_t>& partitions) {
  for (int32_t part : partitions) {
    StageRead(part, /*background=*/true);
  }
}

double PartitionBuffer::ConsumeBackgroundIoSeconds() {
  std::lock_guard<std::mutex> lock(stage_mu_);
  return std::exchange(background_seconds_, 0.0);
}

IoEngineStats PartitionBuffer::ConsumeIoStats() {
  return engine_->ConsumeStats();
}

void PartitionBuffer::DiscardStaleStagedLocked(
    const std::unordered_set<int32_t>& wanted) {
  for (auto it = staged_.begin(); it != staged_.end();) {
    if (wanted.count(it->first) == 0) {
      // Staged data is a clean copy of what is still on disk — discarding loses
      // nothing but the prefetch work.
      arena_->Release(it->second);
      it = staged_.erase(it);
    } else {
      ++it;
    }
  }
}

double PartitionBuffer::SetResident(const std::vector<int32_t>& partitions) {
  MG_CHECK(static_cast<int32_t>(partitions.size()) <= capacity_);
  std::unordered_set<int32_t> wanted(partitions.begin(), partitions.end());
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    DiscardStaleStagedLocked(wanted);
  }
  // Evict residents that are no longer wanted (write-backs go to the engine).
  for (int32_t slot = 0; slot < capacity_; ++slot) {
    const int32_t part = partition_in_slot_[static_cast<size_t>(slot)];
    if (part >= 0 && wanted.find(part) == wanted.end()) {
      EvictSlot(slot, /*background=*/true);
    }
  }
  // Read the misses through the prefetch path, all submitted before the first
  // install waits, so they overlap at the engine's queue depth. They block this
  // call, so each is charged as one undepthed transfer.
  double io = 0.0;
  for (int32_t part : partitions) {
    if (StageRead(part, /*background=*/false)) {
      io += BlockingSeconds(ExtentTransferBytes(part));
    }
  }
  // Install in `partitions` order, whatever order the reads complete in, so
  // the resident layout (and therefore ResidentNodes order) never depends on
  // prefetching.
  for (int32_t part : partitions) {
    if (IsResident(part)) {
      continue;
    }
    const int32_t slot = FindFreeSlot();
    MG_CHECK(slot >= 0);
    float* extent = nullptr;
    {
      std::unique_lock<std::mutex> lock(stage_mu_);
      stage_cv_.wait(lock, [&] { return staged_.count(part) != 0; });
      auto it = staged_.find(part);
      extent = it->second;
      staged_.erase(it);
    }
    slot_extent_[static_cast<size_t>(slot)] = extent;
    partition_in_slot_[static_cast<size_t>(slot)] = part;
    slot_of_partition_[static_cast<size_t>(part)] = slot;
    dirty_[static_cast<size_t>(slot)].store(0, std::memory_order_relaxed);
  }
  return io;
}

void PartitionBuffer::DrainIo() { engine_->Drain(); }

double PartitionBuffer::FlushAll() {
  // One whole-extent write per dirty slot, each queued behind any earlier
  // request for its partition; the drain waits for them all, so they are
  // charged as blocking. Staged prefetches survive a flush: they are clean
  // copies of on-disk data and may still be installed by the next SetResident
  // (e.g. across an epoch boundary). Only BeginImport, which rewrites the file
  // underneath them, discards.
  double io = 0.0;
  for (int32_t slot = 0; slot < capacity_; ++slot) {
    io += BlockingSeconds(EvictSlot(slot, /*background=*/false));
  }
  engine_->Drain();
  return io;
}

float* PartitionBuffer::RowOf(int64_t node, size_t stream_offset) const {
  const int32_t part = partitioning_->PartitionOf(node);
  const int32_t slot = slot_of_partition_[static_cast<size_t>(part)];
  MG_CHECK_MSG(slot >= 0, "node's partition is not resident");
  return slot_extent_[static_cast<size_t>(slot)] + stream_offset / sizeof(float) +
         static_cast<size_t>(partitioning_->LocalIndexOf(node)) * static_cast<size_t>(dim_);
}

float* PartitionBuffer::ValueRow(int64_t node) { return RowOf(node, 0); }

const float* PartitionBuffer::ValueRow(int64_t node) const { return RowOf(node, 0); }

float* PartitionBuffer::StateRow(int64_t node) {
  MG_CHECK(learnable_);
  return RowOf(node, stream_bytes_pad_);
}

Tensor PartitionBuffer::ExportStream(bool state_stream) {
  FlushAll();
  int64_t num_nodes = 0;
  const int32_t p = partitioning_->num_partitions();
  for (int32_t part = 0; part < p; ++part) {
    num_nodes += partitioning_->PartitionSize(part);
  }
  const uint64_t stream_offset = state_stream ? stream_bytes_pad_ : 0;
  Tensor out(num_nodes, dim_);
  std::vector<float> scratch(static_cast<size_t>(max_partition_rows_) * dim_);
  for (int32_t part = 0; part < p; ++part) {
    const auto& nodes = partitioning_->NodesIn(part);
    disk_->Read(scratch.data(), nodes.size() * static_cast<size_t>(dim_) * sizeof(float),
                PartitionFileOffset(part) + stream_offset);
    for (size_t k = 0; k < nodes.size(); ++k) {
      std::memcpy(out.RowPtr(nodes[k]), &scratch[k * static_cast<size_t>(dim_)],
                  static_cast<size_t>(dim_) * sizeof(float));
    }
  }
  return out;
}

Tensor PartitionBuffer::ExportAll() { return ExportStream(/*state_stream=*/false); }

Tensor PartitionBuffer::ExportAllState() {
  MG_CHECK_MSG(learnable_, "ExportAllState requires a learnable buffer");
  return ExportStream(/*state_stream=*/true);
}

double PartitionBuffer::ExportPartition(int32_t partition, float* values_out,
                                        float* state_out) {
  MG_CHECK(partition >= 0 && partition < partitioning_->num_partitions());
  MG_CHECK_MSG(state_out == nullptr || learnable_,
               "ExportPartition: state stream requires a learnable buffer");
  const size_t bytes = StreamPayloadBytes(partition);
  const int32_t slot = slot_of_partition_[static_cast<size_t>(partition)];
  if (slot >= 0) {
    // Flush-through: the resident rows (dirty or clean) are the freshest copy.
    // No eviction, no write-back — residency and the trajectory are untouched.
    const float* extent = slot_extent_[static_cast<size_t>(slot)];
    if (values_out != nullptr) {
      std::memcpy(values_out, extent, bytes);
    }
    if (state_out != nullptr) {
      std::memcpy(state_out, extent + stream_bytes_pad_ / sizeof(float), bytes);
    }
    return 0.0;
  }
  const uint64_t offset = PartitionFileOffset(partition);
  double io = 0.0;
  // Routed through the engine so the read stays ordered behind any in-flight
  // write-back of this partition (per-tag program order): an evicted-dirty
  // partition is never observed half-written.
  if (values_out != nullptr) {
    io += engine_->ReadSync(partition, values_out, bytes, offset);
  }
  if (state_out != nullptr) {
    io += engine_->ReadSync(partition, state_out, bytes, offset + stream_bytes_pad_);
  }
  return io;
}

void PartitionBuffer::BeginImport() {
  // Drop resident copies: FlushAll drains the engine and evicts every slot. The
  // import rewrites the file, so staged prefetches of the *old* data must be
  // discarded too — they would shadow the imported table at the next SetResident.
  FlushAll();
  std::lock_guard<std::mutex> lock(stage_mu_);
  for (auto& entry : staged_) {
    arena_->Release(entry.second);
  }
  staged_.clear();
  MG_CHECK(staging_in_flight_.empty());
}

void PartitionBuffer::ImportPartition(int32_t partition, const float* values,
                                      const float* state) {
  MG_CHECK(partition >= 0 && partition < partitioning_->num_partitions());
  MG_CHECK_MSG((state != nullptr) == learnable_,
               "ImportPartition: state rows must be supplied iff the buffer is learnable");
  // BeginImport evicted everything; a resident partition here means the caller
  // skipped it and the synchronous writes below could be shadowed on eviction.
  MG_CHECK_MSG(slot_of_partition_[static_cast<size_t>(partition)] < 0,
               "ImportPartition without BeginImport: partition is still resident");
  disk_->Write(values, StreamPayloadBytes(partition), PartitionFileOffset(partition));
  if (learnable_) {
    disk_->Write(state, StreamPayloadBytes(partition),
                 PartitionFileOffset(partition) + stream_bytes_pad_);
  }
}

std::vector<int64_t> PartitionBuffer::ResidentNodes() const {
  std::vector<int64_t> nodes;
  for (int32_t slot = 0; slot < capacity_; ++slot) {
    const int32_t part = partition_in_slot_[static_cast<size_t>(slot)];
    if (part >= 0) {
      const auto& pn = partitioning_->NodesIn(part);
      nodes.insert(nodes.end(), pn.begin(), pn.end());
    }
  }
  return nodes;
}

std::vector<int32_t> PartitionBuffer::ResidentPartitions() const {
  std::vector<int32_t> parts;
  for (int32_t slot = 0; slot < capacity_; ++slot) {
    const int32_t part = partition_in_slot_[static_cast<size_t>(slot)];
    if (part >= 0) {
      parts.push_back(part);
    }
  }
  return parts;
}

}  // namespace mariusgnn
