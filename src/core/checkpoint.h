// Crash-safe checkpoint/restore of training state (epoch-boundary snapshots).
//
// A checkpoint is ONE file holding everything a trainer needs to continue a run
// bitwise-identically to one that never stopped: model parameters with their
// Adagrad accumulators, the embedding table (values + accumulator state, flushed
// through the PartitionBuffer in disk mode), the trainer's full RNG state, the
// run seed, and the number of completed epochs. The determinism contract makes
// this sufficient — every batch is a pure function of MixSeed(run_seed,
// batch_index) and consumption is in-order, so restoring {parameters,
// accumulators, embeddings, RNG words, epoch index} reproduces the exact
// continuation stream.
//
// On-disk layout (host endianness, like every other file in the repo):
//
//   [preamble: magic u64 | version u32 | kind_len u32 |
//    manifest_bytes u64 | manifest_checksum u64 | data_bytes u64 | data_checksum u64]
//   [manifest: kind chars | run_seed u64 | epoch u64 | rng_state u64[4] |
//    num_scalars u32, {name_len u32, name, value i64}... |
//    num_sections u32, {name_len u32, name, rows i64, cols i64,
//                       data_offset u64, data_bytes u64}...]
//   [data: tensor payloads, offsets relative to the data block]
//
// The data block begins at the first 4 KiB boundary after the manifest and every
// section offset is rounded up to 4 KiB (gaps are zero padding, covered by the
// data checksum). Every payload therefore sits page-aligned in the file, so the
// serving tier can mmap a checkpoint and hand out zero-copy section views
// (src/serve/), and O_DIRECT readers need no bounce buffering.
//
// Both blobs carry FNV-1a 64 checksums; the format version is bumped on any
// layout change, and readers accept only kCheckpointFormatVersion. Saving
// streams section payloads into an AtomicFile (tmp → fsync → rename) without
// ever materialising the full table: the manifest is built first (all shapes
// are known up front), each section producer writes its rows at the section's
// aligned offset, the data checksum is folded incrementally, and the preamble
// is written last, just before Commit(). A
// crash mid-save leaves the previous checkpoint intact and at worst a stale
// <path>.tmp that the next save replaces (or PruneCheckpoints sweeps).
// Restores are manifest-driven: CheckpointReader validates magic, version,
// sizes, and checksums before touching any payload, then preads each section
// range directly into its destination; corruption is reported as a clear error
// instead of loading garbage (or aborting inside a huge allocation).
#ifndef SRC_CORE_CHECKPOINT_H_
#define SRC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/nn/parameter.h"
#include "src/pipeline/pipeline_controller.h"
#include "src/tensor/tensor.h"
#include "src/util/binary_io.h"
#include "src/util/rng.h"

namespace mariusgnn {

inline constexpr uint32_t kCheckpointFormatVersion = 2;

// ---------------------------------------------------------------------------
// Streaming save
// ---------------------------------------------------------------------------

struct CheckpointSaveRequest;
struct CheckpointSaveStats;

// Handed to a section producer while its payload is being streamed. Rows may be
// appended in file order (cheap: the data checksum folds inline) or scattered
// by row index (the disk-mode embedding table arrives partition-by-partition,
// and partitions hold a random permutation of node ids); scattered sections are
// re-folded from the tmp file in bounded chunks after the producer finishes.
class CheckpointSectionWriter {
 public:
  // Appends `bytes` at the section's running cursor (sequential producers).
  void Append(const void* src, size_t bytes);

  // Writes rows [row, row + count) of this section, in any order. Each row must
  // be written exactly once; the writer checks total coverage at section end.
  void WriteRows(int64_t row, int64_t count, const void* src);

  // Reports the producer's largest transient staging allocation (e.g. one
  // partition's scratch buffer) for peak-memory accounting.
  void NoteStagingBytes(uint64_t bytes);

 private:
  friend CheckpointSaveStats SaveCheckpointStreaming(
      const CheckpointSaveRequest& request, const std::string& path);
  CheckpointSectionWriter(AtomicFile* file, uint64_t file_offset, uint64_t bytes,
                          uint64_t row_bytes, uint64_t* checksum,
                          uint64_t* staging_peak);

  AtomicFile* file_;
  const uint64_t file_offset_;  // absolute offset of the section payload
  const uint64_t bytes_;        // exact payload size
  const uint64_t row_bytes_;    // cols * sizeof(float); 0 for empty sections
  uint64_t* checksum_;          // running FNV-1a fold (sequential path only)
  uint64_t* staging_peak_;
  uint64_t cursor_ = 0;     // bytes appended sequentially
  uint64_t scattered_ = 0;  // bytes written via WriteRows
};

// One section of a streaming save: its name/shape (known up front, so the
// manifest can be serialised before any payload) plus a producer invoked when
// the writer reaches this section. `write` receives a CheckpointSectionWriter
// and must cover exactly rows * cols floats.
struct CheckpointSectionSpec {
  std::string name;
  int64_t rows = 0;
  int64_t cols = 0;
  std::function<void(CheckpointSectionWriter*)> write;
};

// Tensor-backed section producer (the in-memory fast path). `t` must outlive
// the SaveCheckpointStreaming call.
CheckpointSectionSpec TensorSectionSpec(std::string name, const Tensor& t);

// Everything SaveCheckpointStreaming needs: the manifest fields plus the
// ordered section specs.
struct CheckpointSaveRequest {
  std::string kind;
  uint64_t run_seed = 0;
  uint64_t epoch = 0;
  uint64_t rng_state[4] = {0, 0, 0, 0};
  std::vector<std::pair<std::string, int64_t>> scalars;
  std::vector<CheckpointSectionSpec> sections;
};

// Accounting for one streaming save.
struct CheckpointSaveStats {
  // Largest transient allocation on the save path: preamble + manifest +
  // producer staging + the checksum read-back chunk. Never includes a full
  // table image — that is the point of the streaming writer.
  uint64_t peak_bytes = 0;
  uint64_t bytes_written = 0;  // final file size
  double seconds = 0.0;        // wall time of the whole save (incl. fsync)
};

// Streams `request` to `path`: manifest first, each section at its aligned
// offset, data checksum folded incrementally (scatter-written sections are
// re-folded from the tmp file in bounded chunks), preamble written last, then
// Commit(). Byte-identical to the historical whole-image writer for the same
// logical content. Aborts on IO errors (consistent with the rest of the storage
// layer: a failed save must not go unnoticed), never leaves a torn file behind.
CheckpointSaveStats SaveCheckpointStreaming(const CheckpointSaveRequest& request,
                                            const std::string& path);

// ---------------------------------------------------------------------------
// Manifest-driven restore
// ---------------------------------------------------------------------------

// One tensor section as laid out on disk: shape plus the absolute byte range of
// its payload within the checkpoint file.
struct CheckpointSectionInfo {
  std::string name;
  int64_t rows = 0;
  int64_t cols = 0;
  uint64_t file_offset = 0;  // absolute offset of the payload in the file
  uint64_t bytes = 0;        // exact payload size (rows * cols * sizeof(float))
};

// The parsed preamble + manifest of a checkpoint file, without any payload.
struct CheckpointManifest {
  uint32_t version = 0;
  std::string kind;
  uint64_t run_seed = 0;
  uint64_t epoch = 0;
  uint64_t rng_state[4] = {0, 0, 0, 0};
  std::vector<std::pair<std::string, int64_t>> scalars;
  std::vector<CheckpointSectionInfo> sections;
  uint64_t data_start = 0;  // absolute file offset of the data block
  uint64_t data_bytes = 0;  // data block length, alignment padding included

  // O(1) name lookup through an index built at parse time; falls back to a
  // linear scan for hand-assembled manifests whose index is stale.
  const CheckpointSectionInfo* FindSection(const std::string& name) const;
  int64_t scalar(const std::string& name, int64_t fallback) const;

  // name → sections index, filled by ParseCheckpointHead.
  std::unordered_map<std::string, size_t> section_index;
};

// Validated random-access view of a checkpoint file: Open() checks the magic
// and version straight from the preamble (before sizing any allocation from
// untrusted fields), then parses the manifest; VerifyDataChecksum() folds the
// data-block checksum in bounded chunks; ReadSection/ReadRows pread payload
// ranges directly into caller memory. All reads go through File::TryReadAt, so
// a file truncated underneath the reader surfaces as `false` + error, never an
// abort.
class CheckpointReader {
 public:
  bool Open(const std::string& path, std::string* error);

  // Streams the data block and compares against the preamble's checksum.
  // Bounded memory (one chunk); call once after Open, before trusting payloads.
  bool VerifyDataChecksum(std::string* error);

  const CheckpointManifest& manifest() const { return manifest_; }
  // The one descriptor every read goes through. A caller that maps the file
  // maps this descriptor, so the mapping shows the same file as the manifest
  // even if another file is renamed onto the path after Open.
  const File& file() const { return *file_; }
  const CheckpointSectionInfo* FindSection(const std::string& name) const {
    return manifest_.FindSection(name);
  }

  // Reads the whole payload of `s` (s.bytes bytes) into dst.
  bool ReadSection(const CheckpointSectionInfo& s, void* dst, std::string* error);

  // Reads rows [row, row + count) of `s` into dst; bounds-checked against the
  // section's validated geometry.
  bool ReadRows(const CheckpointSectionInfo& s, int64_t row, int64_t count,
                void* dst, std::string* error);

 private:
  std::unique_ptr<File> file_;
  CheckpointManifest manifest_;
  uint64_t data_checksum_ = 0;  // expected value, from the preamble
};

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

// Per-epoch checkpoint naming under keep-last-k retention: "<base>.epoch<N>".
std::string CheckpointEpochPath(const std::string& base, int64_t epoch);

// Deletes the oldest "<base>.epoch<N>" files beyond the newest `keep_last_k`,
// and sweeps stale ".tmp" debris left by crashed saves — but never touches
// `keep_path` (the file just written) or its in-flight tmp. No-op when
// keep_last_k <= 0. Best-effort: unlink failures are ignored.
void PruneCheckpoints(const std::string& base, int64_t keep_last_k,
                      const std::string& keep_path);

// Returns the "<base>.epoch<N>" path with the largest N, or `base` itself if
// only a bare single-file checkpoint exists, or "" when neither does.
std::string LatestCheckpointPath(const std::string& base);

// ---------------------------------------------------------------------------
// Trainer save/restore core
// ---------------------------------------------------------------------------

// Section-name convention shared by both trainers: model parameter i is stored
// as "param<i>.value" / "param<i>.state" in Parameters() order.
std::string ParamSectionName(size_t index, const char* field);

// Restores one parameter from its checkpoint sections. The value must match the
// constructed shape; the accumulator may be empty (optimizer never ran). The
// gradient is re-zeroed (it is always zero at an epoch boundary).
void RestoreParamFromCheckpoint(Parameter* p, const Tensor& value,
                                const Tensor& state);

// The save/restore core both trainers share — kind tag, run seed, epoch count,
// RNG words, controller scalars, and the model-parameter sections — lives here
// so the validation sequence cannot drift between the two trainers. Trainers
// append any extra sections (e.g. the link-prediction embedding table) on top;
// RestoreTrainerCheckpointCore verifies the total section count is exactly
// params * 2 + extra_sections before restoring the parameters straight from the
// reader (no whole-checkpoint materialisation).
void BuildTrainerCheckpointRequest(const std::string& kind, uint64_t run_seed,
                                   int64_t epochs_completed, const Rng& rng,
                                   const PipelineController& controller,
                                   const std::vector<Parameter*>& params,
                                   CheckpointSaveRequest* out);
void RestoreTrainerCheckpointCore(CheckpointReader& reader, const std::string& kind,
                                  uint64_t run_seed, size_t extra_sections,
                                  const std::vector<Parameter*>& params, Rng* rng,
                                  int64_t* epochs_completed,
                                  PipelineController* controller);

}  // namespace mariusgnn

#endif  // SRC_CORE_CHECKPOINT_H_
