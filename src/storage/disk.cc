#include "src/storage/disk.h"

#include <cstdint>

#include "src/storage/io_arena.h"

namespace mariusgnn {

SimulatedDisk::SimulatedDisk(const std::string& path, DiskModel model, bool direct_io,
                             bool truncate)
    : file_(path, truncate), model_(model) {
  if (direct_io) {
    // Opened after the buffered descriptor created the file; null means the
    // filesystem refused O_DIRECT and every transfer stays buffered.
    direct_file_ = File::TryOpenDirect(path);
  }
}

bool SimulatedDisk::DirectEligible(const void* buf, size_t bytes,
                                   uint64_t offset) const {
  return direct_file_ != nullptr &&
         reinterpret_cast<uintptr_t>(buf) % kIoAlignment == 0 &&
         bytes % kIoAlignment == 0 && offset % kIoAlignment == 0;
}

void SimulatedDisk::Read(void* dst, size_t bytes, uint64_t offset) {
  if (bytes == 0) {
    return;
  }
  const bool direct = DirectEligible(dst, bytes, offset);
  (direct ? *direct_file_ : file_).ReadAt(dst, bytes, offset);
  const uint64_t ops = OpsFor(bytes);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.bytes_read += bytes;
  stats_.read_ops += ops;
  stats_.direct_ops += direct ? ops : 0;
}

void SimulatedDisk::Write(const void* src, size_t bytes, uint64_t offset) {
  if (bytes == 0) {
    return;
  }
  const bool direct = DirectEligible(src, bytes, offset);
  (direct ? *direct_file_ : file_).WriteAt(src, bytes, offset);
  const uint64_t ops = OpsFor(bytes);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.bytes_written += bytes;
  stats_.write_ops += ops;
  stats_.direct_ops += direct ? ops : 0;
}

}  // namespace mariusgnn
