#include "src/util/binary_io.h"

#include <fcntl.h>
#include <libgen.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "src/util/check.h"

namespace mariusgnn {

File::File(const std::string& path, bool truncate) : path_(path) {
  int flags = O_RDWR | O_CREAT;
  if (truncate) {
    flags |= O_TRUNC;
  }
  do {
    fd_ = ::open(path.c_str(), flags, 0644);
  } while (fd_ < 0 && errno == EINTR);
  MG_CHECK_MSG(fd_ >= 0, path.c_str());
}

File::~File() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::unique_ptr<File> File::TryOpenDirect(const std::string& path) {
#if defined(O_DIRECT)
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDWR | O_DIRECT);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return nullptr;
  }
  return std::unique_ptr<File>(new File(path, fd));
#else
  (void)path;
  return nullptr;
#endif
}

std::unique_ptr<File> File::TryOpenReadOnly(const std::string& path,
                                            std::string* error) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::strerror(errno);
    }
    return nullptr;
  }
  return std::unique_ptr<File>(new File(path, fd));
}

std::unique_ptr<File> File::OpenReadOnly(const std::string& path) {
  std::string error;
  std::unique_ptr<File> f = TryOpenReadOnly(path, &error);
  MG_CHECK_MSG(f != nullptr, ("cannot open " + path + " for reading: " + error).c_str());
  return f;
}

void File::ReadAt(void* dst, size_t bytes, uint64_t offset) const {
  std::string error;
  MG_CHECK_MSG(TryReadAt(dst, bytes, offset, &error), (path_ + ": " + error).c_str());
}

bool File::TryReadAt(void* dst, size_t bytes, uint64_t offset,
                     std::string* error) const {
  char* p = static_cast<char*>(dst);
  size_t remaining = bytes;
  uint64_t off = offset;
  while (remaining > 0) {
    const ssize_t n = ::pread(fd_, p, remaining, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // interrupted by a signal before any data transferred; retry
      }
      if (error != nullptr) {
        *error = std::strerror(errno);
      }
      return false;
    }
    if (n == 0) {
      // pread returning 0 is end-of-file, not an error, so errno is stale here —
      // report the short read as what it is instead of a misleading strerror.
      if (error != nullptr) {
        *error = "unexpected end of file (short read)";
      }
      return false;
    }
    p += n;
    off += static_cast<uint64_t>(n);
    remaining -= static_cast<size_t>(n);
  }
  return true;
}

void File::WriteAt(const void* src, size_t bytes, uint64_t offset) {
  const char* p = static_cast<const char*>(src);
  size_t remaining = bytes;
  uint64_t off = offset;
  while (remaining > 0) {
    const ssize_t n = ::pwrite(fd_, p, remaining, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      MG_CHECK_MSG(false, std::strerror(errno));
    }
    MG_CHECK_MSG(n > 0, "pwrite made no progress");
    p += n;
    off += static_cast<uint64_t>(n);
    remaining -= static_cast<size_t>(n);
  }
}

void File::Resize(uint64_t bytes) {
  MG_CHECK(::ftruncate(fd_, static_cast<off_t>(bytes)) == 0);
}

void File::Sync() {
  int rc;
  do {
    rc = ::fsync(fd_);
  } while (rc != 0 && errno == EINTR);
  MG_CHECK_MSG(rc == 0, std::strerror(errno));
}

uint64_t File::Size() const {
  struct stat st;
  MG_CHECK(::fstat(fd_, &st) == 0);
  return static_cast<uint64_t>(st.st_size);
}

namespace {

// fsync the directory containing `path` so the rename itself is durable.
void SyncParentDirectory(const std::string& path) {
  std::vector<char> buf(path.begin(), path.end());
  buf.push_back('\0');
  const char* dir = ::dirname(buf.data());
  int fd;
  do {
    fd = ::open(dir, O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return;  // best effort: some filesystems refuse directory opens
  }
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

AtomicFile::AtomicFile(const std::string& path)
    : final_path_(path),
      tmp_path_(path + ".tmp"),
      file_(std::make_unique<File>(tmp_path_, /*truncate=*/true)) {}

AtomicFile::~AtomicFile() {
  if (!committed_) {
    file_.reset();
    std::remove(tmp_path_.c_str());
  }
}

void AtomicFile::Commit() {
  MG_CHECK_MSG(!committed_, "AtomicFile::Commit called twice");
  file_->Sync();
  file_.reset();  // close before rename
  MG_CHECK_MSG(std::rename(tmp_path_.c_str(), final_path_.c_str()) == 0,
               std::strerror(errno));
  SyncParentDirectory(final_path_);
  committed_ = true;
}

template <typename T>
void WriteVector(const std::string& path, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  AtomicFile f(path);
  uint64_t count = v.size();
  f.WriteAt(&count, sizeof(count), 0);
  if (count > 0) {
    f.WriteAt(v.data(), count * sizeof(T), sizeof(count));
  }
  f.Commit();
}

template <typename T>
std::vector<T> ReadVector(const std::string& path) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::unique_ptr<File> f = File::OpenReadOnly(path);
  uint64_t count = 0;
  f->ReadAt(&count, sizeof(count), 0);
  // The on-disk count is untrusted: a truncated or corrupt file must fail here
  // with a clear message, not inside a multi-GB vector allocation.
  const uint64_t size = f->Size();
  MG_CHECK_MSG(count <= (size - sizeof(count)) / sizeof(T),
               "corrupt vector file: element count exceeds file size");
  std::vector<T> v(count);
  if (count > 0) {
    f->ReadAt(v.data(), count * sizeof(T), sizeof(count));
  }
  return v;
}

template void WriteVector<float>(const std::string&, const std::vector<float>&);
template std::vector<float> ReadVector<float>(const std::string&);
template void WriteVector<int32_t>(const std::string&, const std::vector<int32_t>&);
template std::vector<int32_t> ReadVector<int32_t>(const std::string&);
template void WriteVector<int64_t>(const std::string&, const std::vector<int64_t>&);
template std::vector<int64_t> ReadVector<int64_t>(const std::string&);

std::string TempPath(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  const char* tmp = ::getenv("TMPDIR");
  std::string dir = tmp != nullptr ? tmp : "/tmp";
  return dir + "/" + prefix + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

}  // namespace mariusgnn
