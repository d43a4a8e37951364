#include "src/core/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <system_error>

#include "src/storage/io_arena.h"
#include "src/util/binary_io.h"
#include "src/util/check.h"

namespace mariusgnn {

namespace {

constexpr uint64_t kCheckpointMagic = 0x4D474E4E43503031ULL;  // "MGNNCP01"

// Preamble field offsets (see checkpoint.h for the layout).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffKindLen = 12;
constexpr size_t kOffManifestBytes = 16;
constexpr size_t kOffManifestChecksum = 24;
constexpr size_t kOffDataBytes = 32;
constexpr size_t kOffDataChecksum = 40;
constexpr size_t kPreambleBytes = 48;

constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

// Bounded scratch for the incremental data-checksum folds (the streaming
// writer's read-back of scatter-written sections, and the reader's streaming
// verify). Part of the save path's peak_bytes accounting, so it must stay well
// below one partition of embedding rows.
constexpr uint64_t kChecksumChunkBytes = 256 * 1024;

uint64_t Fnv1a64(const uint8_t* data, size_t len) {
  uint64_t h = kFnvOffsetBasis;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

// Incremental FNV-1a 64: folding a blob in chunks yields the same value as one
// Fnv1a64 pass — the property the streaming writer/verifier are built on.
void Fnv1a64Fold(uint64_t* h, const uint8_t* data, size_t len) {
  uint64_t v = *h;
  for (size_t i = 0; i < len; ++i) {
    v ^= data[i];
    v *= kFnvPrime;
  }
  *h = v;
}

void Fnv1a64FoldZeros(uint64_t* h, uint64_t count) {
  uint64_t v = *h;
  for (uint64_t i = 0; i < count; ++i) {
    v *= kFnvPrime;  // v ^= 0 is a no-op
  }
  *h = v;
}

void AppendBytes(std::vector<uint8_t>& buf, const void* src, size_t len) {
  if (len == 0) {
    return;  // empty tensors have a null data(); never form a pointer range from it
  }
  const uint8_t* p = static_cast<const uint8_t*>(src);
  buf.insert(buf.end(), p, p + len);
}

template <typename T>
void AppendPod(std::vector<uint8_t>& buf, T value) {
  AppendBytes(buf, &value, sizeof(value));
}

void AppendString(std::vector<uint8_t>& buf, const std::string& s) {
  AppendPod<uint32_t>(buf, static_cast<uint32_t>(s.size()));
  AppendBytes(buf, s.data(), s.size());
}

// Bounds-checked cursor over an untrusted byte buffer: every primitive read
// fails (returns false) instead of running past the end, so a truncated
// manifest surfaces as a clean parse error.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  template <typename T>
  bool Pod(T* out) {
    if (len_ - pos_ < sizeof(T)) {
      return false;
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool String(std::string* out, size_t max_len = 4096) {
    uint32_t n = 0;
    if (!Pod(&n) || n > max_len || len_ - pos_ < n) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  bool Done() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

bool ValidateMagicVersion(uint64_t magic, uint32_t version, std::string* error) {
  if (magic != kCheckpointMagic) {
    return Fail(error, "not a checkpoint file (bad magic)");
  }
  if (version != kCheckpointFormatVersion) {
    return Fail(error, "unsupported checkpoint format version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kCheckpointFormatVersion) + ")");
  }
  return true;
}

uint64_t SectionBytes(const CheckpointSectionSpec& s) {
  return static_cast<uint64_t>(s.rows) * static_cast<uint64_t>(s.cols) *
         sizeof(float);
}

}  // namespace

std::string ParamSectionName(size_t index, const char* field) {
  return "param" + std::to_string(index) + "." + field;
}

void RestoreParamFromCheckpoint(Parameter* p, const Tensor& value,
                                const Tensor& state) {
  MG_CHECK_MSG(value.rows() == p->value.rows() && value.cols() == p->value.cols(),
               "checkpoint parameter shape mismatch (different model config?)");
  MG_CHECK_MSG(state.empty() || (state.rows() == value.rows() &&
                                 state.cols() == value.cols()),
               "checkpoint optimizer-state shape mismatch");
  p->value = value;
  p->state = state;
  p->grad = Tensor(value.rows(), value.cols());
}

void BuildTrainerCheckpointRequest(const std::string& kind, uint64_t run_seed,
                                   int64_t epochs_completed, const Rng& rng,
                                   const std::vector<Parameter*>& params,
                                   CheckpointSaveRequest* out) {
  out->kind = kind;
  out->run_seed = run_seed;
  out->epoch = static_cast<uint64_t>(epochs_completed);
  rng.SaveState(out->rng_state);
  for (size_t i = 0; i < params.size(); ++i) {
    out->sections.push_back(
        TensorSectionSpec(ParamSectionName(i, "value"), params[i]->value));
    out->sections.push_back(
        TensorSectionSpec(ParamSectionName(i, "state"), params[i]->state));
  }
}

void RestoreTrainerCheckpointCore(CheckpointReader& reader, const std::string& kind,
                                  uint64_t run_seed, size_t extra_sections,
                                  const std::vector<Parameter*>& params, Rng* rng,
                                  int64_t* epochs_completed) {
  const CheckpointManifest& m = reader.manifest();
  MG_CHECK_MSG(m.kind == kind,
               "checkpoint was written by a different trainer kind");
  MG_CHECK_MSG(m.run_seed == run_seed,
               "checkpoint was written with a different run seed");
  MG_CHECK_MSG(m.sections.size() == params.size() * 2 + extra_sections,
               "checkpoint section count mismatch (different model config?)");
  std::string error;
  for (size_t i = 0; i < params.size(); ++i) {
    const CheckpointSectionInfo* vs = reader.FindSection(ParamSectionName(i, "value"));
    const CheckpointSectionInfo* ss = reader.FindSection(ParamSectionName(i, "state"));
    MG_CHECK_MSG(vs != nullptr && ss != nullptr,
                 "checkpoint is missing a model parameter section");
    std::vector<float> value_data(static_cast<size_t>(vs->rows) * vs->cols);
    MG_CHECK_MSG(reader.ReadSection(*vs, value_data.data(), &error), error.c_str());
    std::vector<float> state_data(static_cast<size_t>(ss->rows) * ss->cols);
    MG_CHECK_MSG(reader.ReadSection(*ss, state_data.data(), &error), error.c_str());
    RestoreParamFromCheckpoint(
        params[i], Tensor(vs->rows, vs->cols, std::move(value_data)),
        Tensor(ss->rows, ss->cols, std::move(state_data)));
  }
  rng->RestoreState(m.rng_state);
  *epochs_completed = static_cast<int64_t>(m.epoch);
}

// ---------------------------------------------------------------------------
// Streaming save
// ---------------------------------------------------------------------------

CheckpointSectionWriter::CheckpointSectionWriter(AtomicFile* file,
                                                 uint64_t file_offset,
                                                 uint64_t bytes, uint64_t row_bytes,
                                                 uint64_t* checksum,
                                                 uint64_t* staging_peak)
    : file_(file),
      file_offset_(file_offset),
      bytes_(bytes),
      row_bytes_(row_bytes),
      checksum_(checksum),
      staging_peak_(staging_peak) {}

void CheckpointSectionWriter::Append(const void* src, size_t bytes) {
  if (bytes == 0) {
    return;
  }
  // A section producer is either sequential (checksum folds inline, in file
  // order) or scattered (re-folded from the file afterwards) — mixing the two
  // would corrupt the running fold.
  MG_CHECK_MSG(scattered_ == 0,
               "checkpoint section mixed Append with WriteRows");
  MG_CHECK_MSG(cursor_ + bytes <= bytes_, "checkpoint section overflow");
  file_->WriteAt(src, bytes, file_offset_ + cursor_);
  Fnv1a64Fold(checksum_, static_cast<const uint8_t*>(src), bytes);
  cursor_ += bytes;
}

void CheckpointSectionWriter::WriteRows(int64_t row, int64_t count,
                                        const void* src) {
  if (count == 0) {
    return;
  }
  MG_CHECK_MSG(cursor_ == 0, "checkpoint section mixed WriteRows with Append");
  MG_CHECK(row >= 0 && count > 0 && row_bytes_ > 0);
  const uint64_t offset = static_cast<uint64_t>(row) * row_bytes_;
  const uint64_t n = static_cast<uint64_t>(count) * row_bytes_;
  MG_CHECK_MSG(offset <= bytes_ && n <= bytes_ - offset,
               "checkpoint section row range out of bounds");
  file_->WriteAt(src, n, file_offset_ + offset);
  scattered_ += n;
}

void CheckpointSectionWriter::NoteStagingBytes(uint64_t bytes) {
  *staging_peak_ = std::max(*staging_peak_, bytes);
}

CheckpointSectionSpec TensorSectionSpec(std::string name, const Tensor& t) {
  CheckpointSectionSpec spec;
  spec.name = std::move(name);
  spec.rows = t.rows();
  spec.cols = t.cols();
  spec.write = [&t](CheckpointSectionWriter* w) {
    w->Append(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
  };
  return spec;
}

CheckpointSaveStats SaveCheckpointStreaming(const CheckpointSaveRequest& request,
                                            const std::string& path) {
  const auto start_time = std::chrono::steady_clock::now();

  // Manifest first: every section's shape is known up front, so the whole head
  // — and with it every section's aligned file offset — exists before a single
  // payload byte is produced. Section offsets are 4 KiB-aligned within the data
  // block (format v2) so each payload lands page-aligned in the file; the gaps
  // are zero padding, included in the data blob and its checksum.
  std::vector<uint8_t> manifest;
  AppendBytes(manifest, request.kind.data(), request.kind.size());
  AppendPod<uint64_t>(manifest, request.run_seed);
  AppendPod<uint64_t>(manifest, request.epoch);
  for (uint64_t w : request.rng_state) {
    AppendPod<uint64_t>(manifest, w);
  }
  AppendPod<uint32_t>(manifest, static_cast<uint32_t>(request.scalars.size()));
  for (const auto& [name, value] : request.scalars) {
    AppendString(manifest, name);
    AppendPod<int64_t>(manifest, value);
  }
  AppendPod<uint32_t>(manifest, static_cast<uint32_t>(request.sections.size()));
  std::vector<uint64_t> section_offsets;  // relative to the data block
  section_offsets.reserve(request.sections.size());
  uint64_t data_offset = 0;
  for (const CheckpointSectionSpec& s : request.sections) {
    data_offset = AlignUpIo(data_offset);
    section_offsets.push_back(data_offset);
    AppendString(manifest, s.name);
    AppendPod<int64_t>(manifest, s.rows);
    AppendPod<int64_t>(manifest, s.cols);
    AppendPod<uint64_t>(manifest, data_offset);
    AppendPod<uint64_t>(manifest, SectionBytes(s));
    data_offset += SectionBytes(s);
  }
  const uint64_t data_bytes = data_offset;
  // The data block starts at the first 4 KiB boundary after the manifest,
  // keeping the in-block alignment meaningful file-absolute. The manifest→data
  // gap is a file hole; it reads back as zeros and is in neither checksum.
  const uint64_t data_start = AlignUpIo(kPreambleBytes + manifest.size());

  AtomicFile file(path);
  if (data_bytes > 0) {
    // Pre-size the tmp file so sections can land at their final offsets in any
    // order; unwritten gaps (alignment padding, trailing pad before an empty
    // final section) read back as zeros, exactly what the format requires.
    file.Resize(data_start + data_bytes);
  }
  file.WriteAt(manifest.data(), manifest.size(), kPreambleBytes);

  uint64_t staging_peak = 0;
  uint64_t data_checksum = kFnvOffsetBasis;
  uint64_t folded = 0;        // data-block bytes folded into the checksum so far
  std::vector<uint8_t> chunk;  // read-back scratch; allocated only when needed

  for (size_t i = 0; i < request.sections.size(); ++i) {
    const CheckpointSectionSpec& spec = request.sections[i];
    const uint64_t rel = section_offsets[i];
    const uint64_t bytes = SectionBytes(spec);
    Fnv1a64FoldZeros(&data_checksum, rel - folded);  // inter-section padding
    const uint64_t row_bytes =
        static_cast<uint64_t>(spec.cols) * sizeof(float);
    CheckpointSectionWriter writer(&file, data_start + rel, bytes, row_bytes,
                                   &data_checksum, &staging_peak);
    if (spec.write) {
      spec.write(&writer);
    }
    if (writer.scattered_ > 0) {
      // Rows arrived out of file order (e.g. partition-by-partition over a
      // random node permutation): the inline fold was skipped, so re-fold this
      // section by reading it back from the tmp file in bounded chunks. This is
      // one extra sequential pass over data that is still page-cache warm.
      MG_CHECK_MSG(writer.scattered_ == bytes,
                   "checkpoint section producer did not cover every row");
      if (chunk.empty()) {
        chunk.resize(static_cast<size_t>(
            std::min<uint64_t>(kChecksumChunkBytes, bytes)));
      }
      uint64_t off = 0;
      while (off < bytes) {
        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(chunk.size(), bytes - off));
        file.ReadAt(chunk.data(), n, data_start + rel + off);
        Fnv1a64Fold(&data_checksum, chunk.data(), n);
        off += n;
      }
    } else {
      MG_CHECK_MSG(writer.cursor_ == bytes,
                   "checkpoint section producer wrote the wrong byte count");
    }
    folded = rel + bytes;
  }
  // Trailing padding: an empty final section's aligned offset can extend the
  // data block past the last payload byte.
  Fnv1a64FoldZeros(&data_checksum, data_bytes - folded);

  // Preamble last: until this write the tmp file has no valid magic, so a crash
  // mid-save can never be mistaken for a complete checkpoint even before the
  // rename barrier.
  std::vector<uint8_t> preamble;
  preamble.reserve(kPreambleBytes);
  AppendPod<uint64_t>(preamble, kCheckpointMagic);
  AppendPod<uint32_t>(preamble, kCheckpointFormatVersion);
  AppendPod<uint32_t>(preamble, static_cast<uint32_t>(request.kind.size()));
  AppendPod<uint64_t>(preamble, static_cast<uint64_t>(manifest.size()));
  AppendPod<uint64_t>(preamble, Fnv1a64(manifest.data(), manifest.size()));
  AppendPod<uint64_t>(preamble, data_bytes);
  AppendPod<uint64_t>(preamble, data_checksum);
  MG_CHECK(preamble.size() == kPreambleBytes);
  file.WriteAt(preamble.data(), preamble.size(), 0);
  file.Commit();

  CheckpointSaveStats stats;
  stats.bytes_written =
      data_bytes > 0 ? data_start + data_bytes : kPreambleBytes + manifest.size();
  stats.peak_bytes = kPreambleBytes + manifest.size() + staging_peak +
                     static_cast<uint64_t>(chunk.capacity());
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time)
          .count();
  return stats;
}

// ---------------------------------------------------------------------------
// Manifest parsing / manifest-driven restore
// ---------------------------------------------------------------------------

namespace {

// Preamble + manifest parser behind CheckpointReader::Open.
// `head` must hold the preamble and the whole manifest (callers size it from the
// preamble's manifest_bytes); `file_size` is the full checkpoint file length,
// used to validate the data-block geometry without touching the data itself.
// Fills *out with file-absolute section offsets.
bool ParseCheckpointHead(const uint8_t* head, size_t head_len, uint64_t file_size,
                         CheckpointManifest* out, std::string* error) {
  if (head_len < kPreambleBytes || file_size < kPreambleBytes) {
    return Fail(error, "corrupt checkpoint: file shorter than the preamble");
  }
  auto read_u64 = [&](size_t off) {
    uint64_t v;
    std::memcpy(&v, head + off, sizeof(v));
    return v;
  };
  auto read_u32 = [&](size_t off) {
    uint32_t v;
    std::memcpy(&v, head + off, sizeof(v));
    return v;
  };
  const uint32_t version = read_u32(kOffVersion);
  if (!ValidateMagicVersion(read_u64(kOffMagic), version, error)) {
    return false;
  }
  const uint32_t kind_len = read_u32(kOffKindLen);
  const uint64_t manifest_bytes = read_u64(kOffManifestBytes);
  const uint64_t data_bytes = read_u64(kOffDataBytes);
  // Overflow-safe size validation before trusting any on-disk length. The data
  // block starts at the next 4 KiB boundary after the manifest (a file with no
  // data block ends right after the manifest).
  const uint64_t remaining = file_size - kPreambleBytes;
  if (manifest_bytes > remaining || manifest_bytes + kPreambleBytes > head_len) {
    return Fail(error, "corrupt checkpoint: truncated manifest");
  }
  const uint64_t manifest_end = kPreambleBytes + manifest_bytes;
  const uint64_t data_start = AlignUpIo(manifest_end);
  const bool size_ok =
      data_bytes == 0 ? file_size == manifest_end
                      : data_start <= file_size && data_bytes == file_size - data_start;
  if (!size_ok) {
    return Fail(error, "corrupt checkpoint: truncated manifest or data block");
  }
  const uint8_t* manifest = head + kPreambleBytes;
  if (Fnv1a64(manifest, manifest_bytes) != read_u64(kOffManifestChecksum)) {
    return Fail(error, "corrupt checkpoint: manifest checksum mismatch");
  }

  CheckpointManifest m;
  m.version = version;
  m.data_start = data_start;
  m.data_bytes = data_bytes;
  if (kind_len > manifest_bytes) {
    return Fail(error, "corrupt checkpoint: kind length exceeds manifest");
  }
  m.kind.assign(reinterpret_cast<const char*>(manifest), kind_len);
  Reader body(manifest + kind_len, manifest_bytes - kind_len);
  uint32_t num_scalars = 0;
  uint32_t num_sections = 0;
  bool ok = body.Pod(&m.run_seed) && body.Pod(&m.epoch);
  for (uint64_t& w : m.rng_state) {
    ok = ok && body.Pod(&w);
  }
  ok = ok && body.Pod(&num_scalars);
  for (uint32_t i = 0; ok && i < num_scalars; ++i) {
    std::string name;
    int64_t value = 0;
    ok = body.String(&name) && body.Pod(&value);
    if (ok) {
      m.scalars.emplace_back(std::move(name), value);
    }
  }
  ok = ok && body.Pod(&num_sections);
  for (uint32_t i = 0; ok && i < num_sections; ++i) {
    CheckpointSectionInfo s;
    uint64_t offset = 0;
    ok = body.String(&s.name) && body.Pod(&s.rows) && body.Pod(&s.cols) &&
         body.Pod(&offset) && body.Pod(&s.bytes);
    if (!ok) {
      break;
    }
    // Overflow-guarded geometry validation: rows * cols * sizeof(float) must
    // equal the section size exactly, and bytes <= data_bytes bounds the
    // product — so wraparound cannot smuggle a huge claimed shape past the
    // check (Tensor would otherwise overflow rows * cols, UB on int64).
    const uint64_t urows = static_cast<uint64_t>(s.rows);
    const uint64_t ucols = static_cast<uint64_t>(s.cols);
    const bool shape_overflows =
        ucols != 0 && urows > (data_bytes / sizeof(float)) / ucols;
    if (s.rows < 0 || s.cols < 0 || shape_overflows ||
        urows * ucols * sizeof(float) != s.bytes || offset > data_bytes ||
        s.bytes > data_bytes - offset) {
      return Fail(error, "corrupt checkpoint: tensor section '" + s.name +
                             "' is out of bounds");
    }
    s.file_offset = data_start + offset;
    m.sections.push_back(std::move(s));
  }
  if (!ok || !body.Done()) {
    return Fail(error, "corrupt checkpoint: malformed manifest");
  }
  // Name index for O(1) FindSection — restore touches every section once, so
  // the lookup must not be a linear scan per section.
  m.section_index.reserve(m.sections.size());
  for (size_t i = 0; i < m.sections.size(); ++i) {
    m.section_index.emplace(m.sections[i].name, i);
  }
  *out = std::move(m);
  return true;
}

}  // namespace

const CheckpointSectionInfo* CheckpointManifest::FindSection(
    const std::string& name) const {
  const auto it = section_index.find(name);
  return it == section_index.end() ? nullptr : &sections[it->second];
}

int64_t CheckpointManifest::scalar(const std::string& name,
                                   int64_t fallback) const {
  for (const auto& [n, v] : scalars) {
    if (n == name) {
      return v;
    }
  }
  return fallback;
}

bool CheckpointReader::Open(const std::string& path, std::string* error) {
  std::string open_error;
  file_ = File::TryOpenReadOnly(path, &open_error);
  if (file_ == nullptr) {
    return Fail(error, "cannot open checkpoint '" + path + "': " + open_error);
  }
  const uint64_t file_size = file_->Size();
  if (file_size < kPreambleBytes) {
    return Fail(error, "corrupt checkpoint: file shorter than the preamble");
  }
  uint8_t preamble[kPreambleBytes];
  std::string io_error;
  if (!file_->TryReadAt(preamble, kPreambleBytes, 0, &io_error)) {
    return Fail(error, "corrupt checkpoint: " + io_error);
  }
  // Magic and version are validated straight from the preamble BEFORE the head
  // allocation is sized from the untrusted manifest_bytes field — a garbage
  // multi-GiB file must fail here, not inside a huge allocation.
  uint64_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, preamble + kOffMagic, sizeof(magic));
  std::memcpy(&version, preamble + kOffVersion, sizeof(version));
  if (!ValidateMagicVersion(magic, version, error)) {
    return false;
  }
  uint64_t manifest_bytes = 0;
  std::memcpy(&manifest_bytes, preamble + kOffManifestBytes, sizeof(manifest_bytes));
  if (manifest_bytes > file_size - kPreambleBytes) {
    return Fail(error, "corrupt checkpoint: truncated manifest");
  }
  std::vector<uint8_t> head(kPreambleBytes + static_cast<size_t>(manifest_bytes));
  std::memcpy(head.data(), preamble, kPreambleBytes);
  if (manifest_bytes > 0 &&
      !file_->TryReadAt(head.data() + kPreambleBytes,
                        static_cast<size_t>(manifest_bytes), kPreambleBytes,
                        &io_error)) {
    return Fail(error, "corrupt checkpoint: " + io_error);
  }
  if (!ParseCheckpointHead(head.data(), head.size(), file_size, &manifest_, error)) {
    return false;
  }
  std::memcpy(&data_checksum_, preamble + kOffDataChecksum, sizeof(data_checksum_));
  return true;
}

bool CheckpointReader::VerifyDataChecksum(std::string* error) {
  MG_CHECK_MSG(file_ != nullptr, "CheckpointReader::Open must succeed first");
  uint64_t h = kFnvOffsetBasis;
  if (manifest_.data_bytes > 0) {
    std::vector<uint8_t> chunk(static_cast<size_t>(
        std::min<uint64_t>(kChecksumChunkBytes, manifest_.data_bytes)));
    uint64_t off = manifest_.data_start;
    uint64_t remaining = manifest_.data_bytes;
    std::string io_error;
    while (remaining > 0) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(chunk.size(), remaining));
      if (!file_->TryReadAt(chunk.data(), n, off, &io_error)) {
        return Fail(error, "corrupt checkpoint: " + io_error);
      }
      Fnv1a64Fold(&h, chunk.data(), n);
      off += n;
      remaining -= n;
    }
  }
  if (h != data_checksum_) {
    return Fail(error, "corrupt checkpoint: data checksum mismatch");
  }
  return true;
}

bool CheckpointReader::ReadSection(const CheckpointSectionInfo& s, void* dst,
                                   std::string* error) {
  if (s.bytes == 0) {
    return true;
  }
  std::string io_error;
  if (!file_->TryReadAt(dst, static_cast<size_t>(s.bytes), s.file_offset,
                        &io_error)) {
    return Fail(error, "corrupt checkpoint: " + io_error);
  }
  return true;
}

bool CheckpointReader::ReadRows(const CheckpointSectionInfo& s, int64_t row,
                                int64_t count, void* dst, std::string* error) {
  if (count == 0) {
    return true;
  }
  if (row < 0 || count < 0 || row > s.rows || count > s.rows - row) {
    return Fail(error, "checkpoint section row range out of bounds");
  }
  const uint64_t row_bytes = static_cast<uint64_t>(s.cols) * sizeof(float);
  std::string io_error;
  if (!file_->TryReadAt(dst, static_cast<size_t>(count * row_bytes),
                        s.file_offset + static_cast<uint64_t>(row) * row_bytes,
                        &io_error)) {
    return Fail(error, "corrupt checkpoint: " + io_error);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

std::string CheckpointEpochPath(const std::string& base, int64_t epoch) {
  return base + ".epoch" + std::to_string(epoch);
}

namespace {

// "<dir-prefix>" including the trailing '/' (empty for a bare filename), and
// the filename component of `path`.
void SplitCheckpointPath(const std::string& path, std::string* dir_prefix,
                         std::string* filename) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    dir_prefix->clear();
    *filename = path;
  } else {
    *dir_prefix = path.substr(0, slash + 1);
    *filename = path.substr(slash + 1);
  }
}

// Parses an all-digit epoch tail. False for anything else, including a digit
// string too long for int64_t: such a name is not retention-managed, so it is
// never returned and never deleted.
bool ParseEpoch(const std::string& s, int64_t* epoch) {
  if (s.empty() || s[0] < '0' || s[0] > '9') {
    return false;  // from_chars would accept a leading '-'
  }
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, *epoch);
  return r.ec == std::errc() && r.ptr == end;
}

// Scans the directory of `base` for retention-managed names. Fills `epochs`
// with (N, filename) for every "<stem>.epoch<N>", and `debris` with stale tmp
// files ("<stem>.tmp", "<stem>.epoch<N>.tmp"). Either output may be null.
void ScanCheckpointDir(const std::string& base,
                       std::vector<std::pair<int64_t, std::string>>* epochs,
                       std::vector<std::string>* debris) {
  std::string dir_prefix, stem;
  SplitCheckpointPath(base, &dir_prefix, &stem);
  const std::string dir = dir_prefix.empty() ? "." : dir_prefix;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return;
  }
  const std::string epoch_prefix = stem + ".epoch";
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == stem + ".tmp") {
      if (debris != nullptr) {
        debris->push_back(name);
      }
      continue;
    }
    if (name.size() <= epoch_prefix.size() ||
        name.compare(0, epoch_prefix.size(), epoch_prefix) != 0) {
      continue;
    }
    std::string tail = name.substr(epoch_prefix.size());
    const bool is_tmp = tail.size() > 4 && tail.compare(tail.size() - 4, 4, ".tmp") == 0;
    if (is_tmp) {
      tail.resize(tail.size() - 4);
    }
    int64_t epoch = 0;
    if (!ParseEpoch(tail, &epoch)) {
      continue;
    }
    if (is_tmp) {
      if (debris != nullptr) {
        debris->push_back(name);
      }
    } else if (epochs != nullptr) {
      epochs->emplace_back(epoch, name);
    }
  }
  ::closedir(d);
}

}  // namespace

void PruneCheckpoints(const std::string& base, int64_t keep_last_k,
                      const std::string& keep_path) {
  if (keep_last_k <= 0) {
    return;
  }
  std::string dir_prefix, stem;
  SplitCheckpointPath(base, &dir_prefix, &stem);
  std::string keep_dir, keep_name;
  SplitCheckpointPath(keep_path, &keep_dir, &keep_name);

  std::vector<std::pair<int64_t, std::string>> epochs;
  std::vector<std::string> debris;
  ScanCheckpointDir(base, &epochs, &debris);

  // Newest first; everything past the first keep_last_k entries goes — except
  // the file just written, which is never deleted regardless of its epoch.
  std::sort(epochs.begin(), epochs.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = static_cast<size_t>(keep_last_k); i < epochs.size(); ++i) {
    if (epochs[i].second == keep_name) {
      continue;
    }
    std::remove((dir_prefix + epochs[i].second).c_str());
  }
  // Stale tmp debris from crashed saves. The just-written file's own tmp name
  // is excluded for safety, though a completed Commit has already renamed it.
  for (const std::string& name : debris) {
    if (name == keep_name + ".tmp") {
      continue;
    }
    std::remove((dir_prefix + name).c_str());
  }
}

std::string LatestCheckpointPath(const std::string& base) {
  std::string dir_prefix, stem;
  SplitCheckpointPath(base, &dir_prefix, &stem);
  std::vector<std::pair<int64_t, std::string>> epochs;
  ScanCheckpointDir(base, &epochs, nullptr);
  if (!epochs.empty()) {
    const auto it = std::max_element(
        epochs.begin(), epochs.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    return dir_prefix + it->second;
  }
  struct stat st;
  if (::stat(base.c_str(), &st) == 0) {
    return base;
  }
  return std::string();
}

}  // namespace mariusgnn
