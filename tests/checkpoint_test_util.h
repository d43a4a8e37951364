// Test-only whole-table checkpoint helpers. The library saves and restores
// checkpoints by streaming (SaveCheckpointStreaming and CheckpointReader in
// src/core/checkpoint.h); these wrap that API around an in-memory image so the
// format tests can build, save, load and compare whole checkpoints. The
// byte-level reference writer below is independent of the library's writer: it
// lays out the current format the way the pre-streaming writer did, and the
// retired version-1 layout that readers must now reject.
#ifndef TESTS_CHECKPOINT_TEST_UTIL_H_
#define TESTS_CHECKPOINT_TEST_UTIL_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/tensor/tensor.h"
#include "src/util/check.h"

namespace mariusgnn {

inline constexpr uint64_t kTestCheckpointMagic = 0x4D474E4E43503031ULL;  // "MGNNCP01"

struct Checkpoint {
  // Which trainer wrote this ("link_prediction" / "node_classification").
  std::string kind;
  uint64_t run_seed = 0;
  // Epochs completed when the snapshot was taken.
  uint64_t epoch = 0;
  // Full xoshiro256** state of the trainer RNG at the epoch boundary.
  uint64_t rng_state[4] = {0, 0, 0, 0};
  std::vector<std::pair<std::string, int64_t>> scalars;
  // Named tensor sections, in file order.
  std::vector<std::pair<std::string, Tensor>> tensors;

  // Aborts when the section is absent. O(1) amortised: the name index is
  // rebuilt whenever its size no longer matches `tensors` (sections are
  // appended, never renamed in place).
  const Tensor& tensor(const std::string& name) const {
    if (tensor_index_.size() != tensors.size()) {
      tensor_index_.clear();
      for (size_t i = 0; i < tensors.size(); ++i) {
        tensor_index_.emplace(tensors[i].first, i);
      }
    }
    const auto it = tensor_index_.find(name);
    MG_CHECK_MSG(it != tensor_index_.end(),
                 ("checkpoint is missing tensor section '" + name + "'").c_str());
    return tensors[it->second].second;
  }

  int64_t scalar(const std::string& name, int64_t fallback) const {
    for (const auto& [n, v] : scalars) {
      if (n == name) {
        return v;
      }
    }
    return fallback;
  }

 private:
  mutable std::unordered_map<std::string, size_t> tensor_index_;
};

// Writes `checkpoint` through the library's streaming writer.
inline void SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path) {
  CheckpointSaveRequest request;
  request.kind = checkpoint.kind;
  request.run_seed = checkpoint.run_seed;
  request.epoch = checkpoint.epoch;
  for (size_t i = 0; i < 4; ++i) {
    request.rng_state[i] = checkpoint.rng_state[i];
  }
  request.scalars = checkpoint.scalars;
  for (const auto& [name, t] : checkpoint.tensors) {
    request.sections.push_back(TensorSectionSpec(name, t));
  }
  SaveCheckpointStreaming(request, path);
}

// Reads and validates `path` (data checksum included) through CheckpointReader.
// Returns false with the reader's error; *out is only written on success.
inline bool LoadCheckpoint(const std::string& path, Checkpoint* out,
                           std::string* error) {
  CheckpointReader reader;
  if (!reader.Open(path, error) || !reader.VerifyDataChecksum(error)) {
    return false;
  }
  const CheckpointManifest& m = reader.manifest();
  Checkpoint ck;
  ck.kind = m.kind;
  ck.run_seed = m.run_seed;
  ck.epoch = m.epoch;
  for (size_t i = 0; i < 4; ++i) {
    ck.rng_state[i] = m.rng_state[i];
  }
  ck.scalars = m.scalars;
  for (const CheckpointSectionInfo& s : m.sections) {
    std::vector<float> values(static_cast<size_t>(s.rows) * s.cols);
    if (!reader.ReadSection(s, values.data(), error)) {
      return false;
    }
    ck.tensors.emplace_back(s.name, Tensor(s.rows, s.cols, std::move(values)));
  }
  *out = std::move(ck);
  return true;
}

// Byte-level reference writer: serializes the manifest, materializes the whole
// data blob in memory, then lays the file out as preamble | manifest | data.
// Version 2 (kCheckpointFormatVersion) pads every section to a 4 KiB offset
// and starts the data block on a 4 KiB boundary. Version 1, the retired
// layout, packs the sections flush against the manifest and each other.
inline void WriteReferenceCheckpoint(const Checkpoint& ck, const std::string& path,
                                     uint32_t version) {
  const bool aligned = version >= 2;
  auto fnv = [](const std::vector<char>& b) {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : b) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001B3ULL;
    }
    return h;
  };
  auto align4k = [](uint64_t n) { return (n + 4095) & ~uint64_t{4095}; };
  auto put = [](std::vector<char>& b, const void* src, size_t len) {
    const char* p = static_cast<const char*>(src);
    b.insert(b.end(), p, p + len);
  };
  auto put_u32 = [&](std::vector<char>& b, uint32_t v) { put(b, &v, 4); };
  auto put_u64 = [&](std::vector<char>& b, uint64_t v) { put(b, &v, 8); };
  auto put_i64 = [&](std::vector<char>& b, int64_t v) { put(b, &v, 8); };
  auto put_str = [&](std::vector<char>& b, const std::string& s) {
    put_u32(b, static_cast<uint32_t>(s.size()));
    put(b, s.data(), s.size());
  };

  std::vector<char> manifest;
  put(manifest, ck.kind.data(), ck.kind.size());
  put_u64(manifest, ck.run_seed);
  put_u64(manifest, ck.epoch);
  for (uint64_t w : ck.rng_state) {
    put_u64(manifest, w);
  }
  put_u32(manifest, static_cast<uint32_t>(ck.scalars.size()));
  for (const auto& [name, value] : ck.scalars) {
    put_str(manifest, name);
    put_i64(manifest, value);
  }
  put_u32(manifest, static_cast<uint32_t>(ck.tensors.size()));
  std::vector<char> data;
  for (const auto& [name, t] : ck.tensors) {
    if (aligned) {
      data.resize(align4k(data.size()));  // zero-filled alignment padding
    }
    put_str(manifest, name);
    put_i64(manifest, t.rows());
    put_i64(manifest, t.cols());
    put_u64(manifest, data.size());
    put_u64(manifest, static_cast<uint64_t>(t.size()) * sizeof(float));
    if (t.size() > 0) {
      put(data, t.data(), static_cast<size_t>(t.size()) * sizeof(float));
    }
  }

  std::vector<char> file;
  put_u64(file, kTestCheckpointMagic);
  put_u32(file, version);
  put_u32(file, static_cast<uint32_t>(ck.kind.size()));
  put_u64(file, manifest.size());
  put_u64(file, fnv(manifest));
  put_u64(file, data.size());
  put_u64(file, fnv(data));
  file.insert(file.end(), manifest.begin(), manifest.end());
  if (!data.empty()) {
    if (aligned) {
      file.resize(align4k(file.size()));  // manifest->data gap (a hole in real files)
    }
    file.insert(file.end(), data.begin(), data.end());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

}  // namespace mariusgnn

#endif  // TESTS_CHECKPOINT_TEST_UTIL_H_
