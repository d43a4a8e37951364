// POD-vector binary (de)serialisation and positional file IO helpers.
//
// The storage layer keeps node partitions and edge buckets in flat binary files; these
// helpers wrap POSIX pread/pwrite with full-transfer loops and error checking.
#ifndef SRC_UTIL_BINARY_IO_H_
#define SRC_UTIL_BINARY_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mariusgnn {

// RAII file handle opened for read/write (created if missing).
class File {
 public:
  explicit File(const std::string& path, bool truncate = false);
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;

  // Opens an existing file O_RDWR | O_DIRECT; returns nullptr when the kernel or
  // filesystem refuses direct IO (tmpfs, overlayfs, non-Linux). Callers pair this
  // with a buffered descriptor and route only aligned transfers here.
  static std::unique_ptr<File> TryOpenDirect(const std::string& path);

  // Opens read-only without aborting: returns nullptr and fills `error` when the
  // file cannot be opened (the checkpoint loader reports, never crashes). The
  // returned handle shares ReadAt's EINTR/short-read policy.
  static std::unique_ptr<File> TryOpenReadOnly(const std::string& path,
                                               std::string* error);

  // Opens an existing file read-only, for trusted inputs (dataset and vector
  // files): aborts with a message naming `path` when it cannot be opened, and
  // never creates a file.
  static std::unique_ptr<File> OpenReadOnly(const std::string& path);

  // Reads exactly `bytes` at `offset`; retries EINTR, aborts naming the file on
  // IO error or on end-of-file before `bytes` were read (reported as a short
  // read, not errno).
  void ReadAt(void* dst, size_t bytes, uint64_t offset) const;

  // Non-aborting ReadAt for untrusted inputs (checkpoint loads, snapshot opens):
  // returns false and fills `error` on IO error or end-of-file before `bytes`
  // were read — e.g. a file truncated between Size() and the read — instead of
  // killing the process. Retries EINTR like ReadAt.
  bool TryReadAt(void* dst, size_t bytes, uint64_t offset,
                 std::string* error) const;

  // Writes exactly `bytes` at `offset`; retries EINTR, aborts on error.
  void WriteAt(const void* src, size_t bytes, uint64_t offset);

  // Grows or shrinks the file to `bytes`.
  void Resize(uint64_t bytes);

  // Flushes file contents and metadata to stable storage (fsync).
  void Sync();

  uint64_t Size() const;

  const std::string& path() const { return path_; }
  // The open descriptor, for mapping the file (it stays owned by this File).
  int fd() const { return fd_; }

 private:
  File(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

// Crash-safe whole-file replacement: writes land in `<path>.tmp`, and Commit()
// fsyncs the data, renames the tmp file over `path`, and fsyncs the containing
// directory — so a reader only ever observes the previous complete file or the
// new complete file, never a torn write. A writer destroyed without Commit()
// (e.g. the process died mid-save) leaves at most a stale `<path>.tmp`, which
// the next successful Commit() replaces.
class AtomicFile {
 public:
  explicit AtomicFile(const std::string& path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  void WriteAt(const void* src, size_t bytes, uint64_t offset) {
    file_->WriteAt(src, bytes, offset);
  }

  // Reads back bytes already written to the tmp file. The streaming checkpoint
  // writer uses this to fold the data checksum over sections whose rows were
  // scatter-written out of file order.
  void ReadAt(void* dst, size_t bytes, uint64_t offset) const {
    file_->ReadAt(dst, bytes, offset);
  }

  // Pre-sizes the tmp file so section payloads can land at their final aligned
  // offsets in any order; unwritten gaps read back as zeros (file holes).
  void Resize(uint64_t bytes) { file_->Resize(bytes); }

  // fsync + rename + directory fsync. May be called at most once; after Commit
  // the data is durable under `path`.
  void Commit();

  const std::string& tmp_path() const { return tmp_path_; }

 private:
  std::string final_path_;
  std::string tmp_path_;
  std::unique_ptr<File> file_;
  bool committed_ = false;
};

// Whole-vector helpers (little-endian host layout; used for dataset snapshots).
// WriteVector replaces the file atomically (AtomicFile); ReadVector validates the
// on-disk element count against the file size before allocating, so a truncated
// or corrupt header cannot trigger a huge allocation.
template <typename T>
void WriteVector(const std::string& path, const std::vector<T>& v);

template <typename T>
std::vector<T> ReadVector(const std::string& path);

// Returns a unique path inside the system temp directory with the given prefix.
std::string TempPath(const std::string& prefix);

}  // namespace mariusgnn

#endif  // SRC_UTIL_BINARY_IO_H_
