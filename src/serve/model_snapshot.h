// Immutable serving snapshot of a trained model (the online tier's unit of swap).
//
// A ModelSnapshot binds one checkpoint file to one ModelState: the manifest is
// parsed (never the payloads), model parameters are read section-by-section, and
// the link-prediction embedding table is exposed through an EmbeddingSource
// over a read-only mmap of the checkpoint: checkpoints guarantee 4 KiB-aligned
// sections, so embedding rows are gathered straight out of the page-cache
// mapping — no deserialise pass, no second copy of the table in memory. The
// kernel pages rows in on demand and evicts them under memory pressure, so
// the same mapping serves tables larger than RAM.
//
// Snapshots are immutable after Load and safe for concurrent readers: the
// const forward path of ModelState never writes shared state. The server holds
// snapshots in shared_ptrs so a hot swap retires the old epoch only after the
// last in-flight batch drops its reference.
#ifndef SRC_SERVE_MODEL_SNAPSHOT_H_
#define SRC_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/model.h"
#include "src/graph/graph.h"
#include "src/tensor/tensor.h"
#include "src/util/compute.h"

namespace mariusgnn {

// Snapshot loading has no settings: the embedding table is always the mmap
// view. Load keeps this empty parameter for source compatibility with callers
// that pass SnapshotOptions().
struct SnapshotOptions {};

// Read-only row source over one checkpoint section (the embedding table): an
// mmap of the checkpoint file.
class EmbeddingSource {
 public:
  ~EmbeddingSource();
  EmbeddingSource(const EmbeddingSource&) = delete;
  EmbeddingSource& operator=(const EmbeddingSource&) = delete;

  static std::unique_ptr<EmbeddingSource> OpenMapped(
      const std::string& path, const CheckpointSectionInfo& section,
      std::string* error);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  // out[i] = row(nodes[i]); |nodes| x cols. Every row must be in [0, rows());
  // the server checks query ids before they reach here.
  Tensor Gather(const std::vector<int64_t>& nodes,
                const ComputeContext* compute) const;

 private:
  EmbeddingSource() = default;

  int64_t rows_ = 0;
  int64_t cols_ = 0;

  // Whole-file mapping; the section's payload starts at section_data_.
  void* map_base_ = nullptr;
  size_t map_bytes_ = 0;
  const float* section_data_ = nullptr;
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
