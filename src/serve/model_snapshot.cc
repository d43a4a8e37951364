#include "src/serve/model_snapshot.h"

#include <sys/mman.h>

#include <cstring>

#include "src/util/binary_io.h"
#include "src/util/check.h"

namespace mariusgnn {

EmbeddingSource::~EmbeddingSource() {
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_bytes_);
  }
}

std::unique_ptr<EmbeddingSource> EmbeddingSource::OpenMapped(
    const CheckpointReader& reader, const CheckpointSectionInfo& section,
    std::string* error) {
  std::unique_ptr<EmbeddingSource> src(new EmbeddingSource());
  src->rows_ = section.rows;
  src->cols_ = section.cols;
  // The file length Open validated; the data block runs to the end of the file.
  const CheckpointManifest& manifest = reader.manifest();
  const size_t map_bytes = static_cast<size_t>(manifest.data_start + manifest.data_bytes);
  void* base = ::mmap(nullptr, map_bytes, PROT_READ, MAP_SHARED, reader.file().fd(), 0);
  if (base == MAP_FAILED) {
    *error = "serve: mmap failed on checkpoint: " + reader.file().path();
    return nullptr;
  }
  src->map_base_ = base;
  src->map_bytes_ = map_bytes;
  src->section_data_ = reinterpret_cast<const float*>(
      static_cast<const uint8_t*>(base) + section.file_offset);
  return src;
}

Tensor EmbeddingSource::Gather(const std::vector<int64_t>& nodes,
                               const ComputeContext* compute) const {
  const int64_t n = static_cast<int64_t>(nodes.size());
  Tensor out(n, cols_);
  // Row-local copies, parallel-safe at any pool size.
  ForEachChunk(compute, n, kComputeGrainRows,
               [&](int64_t, int64_t begin, int64_t end) {
                 for (int64_t i = begin; i < end; ++i) {
                   const int64_t row = nodes[static_cast<size_t>(i)];
                   MG_DCHECK(row >= 0 && row < rows_);
                   std::memcpy(out.RowPtr(i), section_data_ + row * cols_,
                               static_cast<size_t>(cols_) * sizeof(float));
                 }
               });
  return out;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::Load(
    const std::string& path, const Graph& graph, TaskKind kind,
    const ModelConfig& config, const SnapshotOptions& /*options*/,
    std::string* error) {
  // One reader, one descriptor: the manifest, the parameters and the mapped
  // table all come from the file the path named when Open ran.
  CheckpointReader reader;
  if (!reader.Open(path, error)) {
    return nullptr;
  }
  const CheckpointManifest& manifest = reader.manifest();
  if (manifest.kind != CheckpointKindName(kind)) {
    *error = "serve: checkpoint kind '" + manifest.kind + "' does not match task '" +
             CheckpointKindName(kind) + "'";
    return nullptr;
  }

  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->kind = kind;
  snapshot->epoch = manifest.epoch;
  snapshot->run_seed = manifest.run_seed;
  snapshot->format_version = manifest.version;
  Rng init_rng(config.seed);  // throwaway: every weight is overwritten below
  snapshot->model = ModelState::Build(kind, graph, config, init_rng);

  const size_t expected_sections =
      snapshot->model.params.size() * 2 +
      (kind == TaskKind::kLinkPrediction ? 2 : 0);
  if (manifest.sections.size() != expected_sections) {
    *error = "serve: checkpoint section count does not match the model config (" +
             std::to_string(manifest.sections.size()) + " vs expected " +
             std::to_string(expected_sections) + ")";
    return nullptr;
  }

  for (size_t i = 0; i < snapshot->model.params.size(); ++i) {
    const std::string name = ParamSectionName(i, "value");
    const CheckpointSectionInfo* section = manifest.FindSection(name);
    if (section == nullptr) {
      *error = "serve: checkpoint is missing section '" + name + "'";
      return nullptr;
    }
    Parameter* p = snapshot->model.params[i];
    if (section->rows != p->value.rows() || section->cols != p->value.cols()) {
      *error = "serve: section '" + name +
               "' shape does not match the model config (different training run?)";
      return nullptr;
    }
    Tensor value(section->rows, section->cols);
    // Untrusted on-disk input: fail with a clean error instead of aborting if
    // the file was truncated between the manifest parse and this read.
    if (!reader.ReadSection(*section, value.data(), error)) {
      *error = "serve: " + *error;
      return nullptr;
    }
    // Serving never runs the optimizer: drop the Adagrad accumulator sections.
    RestoreParamFromCheckpoint(p, value, Tensor());
  }

  if (kind == TaskKind::kLinkPrediction) {
    const CheckpointSectionInfo* section = manifest.FindSection("embeddings.values");
    if (section == nullptr) {
      *error = "serve: checkpoint is missing section 'embeddings.values'";
      return nullptr;
    }
    if (section->rows != graph.num_nodes() || section->cols != config.dims.front()) {
      *error = "serve: embedding table shape does not match (graph, config)";
      return nullptr;
    }
    snapshot->embeddings = EmbeddingSource::OpenMapped(reader, *section, error);
    if (snapshot->embeddings == nullptr) {
      return nullptr;
    }
  }
  return snapshot;
}

}  // namespace mariusgnn
