// Immutable serving snapshot of a trained model (the online tier's unit of swap).
//
// A ModelSnapshot binds one checkpoint file to one ModelState: the manifest is
// parsed (never the payloads), model parameters are read section-by-section, and
// the link-prediction embedding table is exposed through an EmbeddingSource
// whose backing depends on the serving mode:
//
//  - kMapped:  checkpoints guarantee 4 KiB-aligned sections, so the file is
//              mmapped read-only and embedding rows are gathered straight out
//              of the page-cache mapping — no deserialise pass, no second copy
//              of the (potentially huge) table in memory.
//  - kDiskLru: disk-backed serving: rows stay on disk and are pulled through a
//              fixed-capacity LRU cache of row blocks (pread on miss), fronting
//              the checkpoint file the way the training tier's PartitionBuffer
//              fronts its partition file.
//
// Snapshots are immutable after Load and safe for concurrent readers: the
// const forward path of ModelState never writes shared state, and the only
// mutable piece — the LRU cache — is guarded internally. The server holds
// snapshots in shared_ptrs so a hot swap retires the old epoch only after the
// last in-flight batch drops its reference.
#ifndef SRC_SERVE_MODEL_SNAPSHOT_H_
#define SRC_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/model.h"
#include "src/graph/graph.h"
#include "src/tensor/tensor.h"
#include "src/util/binary_io.h"
#include "src/util/compute.h"

namespace mariusgnn {

// How a snapshot backs the embedding table.
struct SnapshotOptions {
  // true = keep embedding rows on disk behind the LRU block cache; false =
  // serve from an mmap view of the checkpoint.
  bool disk_backed = false;
  int64_t cache_block_rows = 256;     // rows per cached block
  int64_t cache_capacity_blocks = 64; // resident block limit
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

// Read-only row source over one checkpoint section (the embedding table).
class EmbeddingSource {
 public:
  ~EmbeddingSource();
  EmbeddingSource(const EmbeddingSource&) = delete;
  EmbeddingSource& operator=(const EmbeddingSource&) = delete;

  // Memory-backed view: mmap of the checkpoint file.
  static std::unique_ptr<EmbeddingSource> OpenMapped(
      const std::string& path, const CheckpointSectionInfo& section,
      std::string* error);
  // Disk-backed: rows stay in the file, served through the LRU block cache.
  static std::unique_ptr<EmbeddingSource> OpenDiskLru(
      const std::string& path, const CheckpointSectionInfo& section,
      const SnapshotOptions& options, std::string* error);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  bool mapped() const { return map_base_ != nullptr; }
  bool disk_backed() const { return file_ != nullptr; }

  // out[i] = row(nodes[i]); |nodes| x cols. Concurrency-safe (the LRU state is
  // internally locked); bitwise-pure in `nodes` regardless of cache state.
  Tensor Gather(const std::vector<int64_t>& nodes,
                const ComputeContext* compute) const;

  CacheStats cache_stats() const;

 private:
  EmbeddingSource() = default;

  // Returns the cached block holding `row`, faulting it in (and evicting the
  // least-recently-used block) as needed. Caller holds cache_mu_.
  const float* CachedRow(int64_t row) const;

  int64_t rows_ = 0;
  int64_t cols_ = 0;

  // kMapped: whole-file mapping; the section's payload starts at section_data_.
  void* map_base_ = nullptr;
  size_t map_bytes_ = 0;
  const float* section_data_ = nullptr;

  // kDiskLru state.
  std::unique_ptr<File> file_;
  uint64_t file_offset_ = 0;  // section payload offset in the file
  int64_t block_rows_ = 0;
  int64_t capacity_blocks_ = 0;
  mutable std::mutex cache_mu_;
  mutable std::list<int64_t> lru_;  // most-recent block id at front
  struct Block {
    std::vector<float> data;
    std::list<int64_t>::iterator lru_it;
  };
  mutable std::unordered_map<int64_t, Block> blocks_;
  mutable CacheStats stats_;
};

// One immutable epoch of the model, loaded from a checkpoint file.
struct ModelSnapshot {
  TaskKind kind = TaskKind::kLinkPrediction;
  uint64_t epoch = 0;
  uint64_t run_seed = 0;
  uint32_t format_version = 0;
  ModelState model;
  // Link prediction only (node classification serves features from the graph).
  std::unique_ptr<EmbeddingSource> embeddings;

  // Parses the manifest, validates kind/shape compatibility against
  // (graph, config), loads the parameter sections, and wires the embedding
  // source. Returns nullptr with *error set on any mismatch or IO failure.
  static std::shared_ptr<const ModelSnapshot> Load(const std::string& path,
                                                   const Graph& graph,
                                                   TaskKind kind,
                                                   const ModelConfig& config,
                                                   const SnapshotOptions& options,
                                                   std::string* error);
};

}  // namespace mariusgnn

#endif  // SRC_SERVE_MODEL_SNAPSHOT_H_
