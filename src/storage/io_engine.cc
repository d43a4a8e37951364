#include "src/storage/io_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/storage/io_arena.h"
#include "src/util/check.h"

namespace mariusgnn {

IoEngine::IoEngine(SimulatedDisk* disk, IoEngineOptions options)
    : disk_(disk), options_(std::move(options)) {
  MG_CHECK(disk_ != nullptr);
  MG_CHECK_MSG(options_.queue_depth >= 1, "io queue depth must be >= 1");
  last_event_ = std::chrono::steady_clock::now();
  workers_.reserve(static_cast<size_t>(options_.queue_depth));
  for (int i = 0; i < options_.queue_depth; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoEngine::~IoEngine() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void IoEngine::NoteEventLocked() {
  const auto now = std::chrono::steady_clock::now();
  const int outstanding = static_cast<int>(sq_.size() + busy_tags_.size());
  if (outstanding > 0) {
    const double dt = std::chrono::duration<double>(now - last_event_).count();
    depth_integral_ += dt * outstanding;
    busy_seconds_ += dt;
  }
  last_event_ = now;
}

void IoEngine::SubmitRead(int32_t tag, void* dst, size_t bytes, uint64_t offset,
                          Completion done) {
  MG_CHECK(dst != nullptr || bytes == 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    NoteEventLocked();
    IoRequest req;
    req.kind = IoRequest::Kind::kRead;
    req.tag = tag;
    req.offset = offset;
    req.bytes = bytes;
    req.dst = dst;
    sq_.push_back(Pending{req, std::move(done), next_seq_++});
    stats_.read_requests += 1;
    stats_.read_bytes += bytes;
    stats_.inflight_peak = std::max(
        stats_.inflight_peak, static_cast<int>(sq_.size() + busy_tags_.size()));
  }
  work_cv_.notify_one();
}

void IoEngine::SubmitWrite(int32_t tag, const void* src, size_t bytes,
                           uint64_t offset, Completion done) {
  MG_CHECK(src != nullptr || bytes == 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    NoteEventLocked();
    IoRequest req;
    req.kind = IoRequest::Kind::kWrite;
    req.tag = tag;
    req.offset = offset;
    req.bytes = bytes;
    req.src = src;
    sq_.push_back(Pending{req, std::move(done), next_seq_++});
    stats_.write_requests += 1;
    stats_.write_bytes += bytes;
    stats_.inflight_peak = std::max(
        stats_.inflight_peak, static_cast<int>(sq_.size() + busy_tags_.size()));
  }
  work_cv_.notify_one();
}

double IoEngine::ReadSync(int32_t tag, void* dst, size_t bytes,
                          uint64_t offset) {
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool finished = false;
  SubmitRead(tag, dst, bytes, offset, [&](double /*modeled_seconds*/) {
    std::lock_guard<std::mutex> lock(done_mu);
    finished = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return finished; });
  // A blocking miss cannot overlap anything: charge full undepthed latency,
  // regardless of what the queue looked like when the transfer ran.
  return disk_->model().SecondsFor(bytes, disk_->OpsFor(bytes));
}

void IoEngine::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return sq_.empty() && busy_tags_.empty(); });
}

IoEngineStats IoEngine::ConsumeStats() {
  std::lock_guard<std::mutex> lock(mu_);
  NoteEventLocked();
  IoEngineStats out = stats_;
  out.queue_depth_mean =
      busy_seconds_ > 0.0 ? depth_integral_ / busy_seconds_ : 0.0;
  stats_ = IoEngineStats();
  depth_integral_ = 0.0;
  busy_seconds_ = 0.0;
  return out;
}

std::optional<IoEngine::Pending> IoEngine::ClaimLocked() {
  // Per-partition FIFO: scan the submission queue in order and take the first
  // request whose tag has nothing in flight and nothing queued ahead of it.
  std::unordered_set<int32_t> earlier_tags;
  for (auto it = sq_.begin(); it != sq_.end(); ++it) {
    const int32_t tag = it->req.tag;
    if (earlier_tags.count(tag) == 0 && busy_tags_.count(tag) == 0) {
      Pending p = std::move(*it);
      sq_.erase(it);
      // io_engine.tag_order: claiming is starting, so seq must be increasing
      // per tag across every claim.
      rv_tag_order_.ObserveStart(tag, p.seq);
      busy_tags_.insert(tag);
      return p;
    }
    earlier_tags.insert(tag);
  }
  return std::nullopt;  // everything queued is ordered behind an in-flight request
}

void IoEngine::Execute(const Pending& p) {
  const IoRequest& r = p.req;
  if (options_.before_io) {
    options_.before_io(r);
  }
  if (r.kind == IoRequest::Kind::kRead) {
    disk_->Read(r.dst, r.bytes, r.offset);
  } else {
    disk_->Write(r.src, r.bytes, r.offset);
  }
  if (p.done) {
    p.done(disk_->model().SecondsForAtDepth(r.bytes, disk_->OpsFor(r.bytes),
                                            options_.queue_depth));
  }

  std::lock_guard<std::mutex> lock(mu_);
  NoteEventLocked();
  busy_tags_.erase(r.tag);
  if (sq_.empty() && busy_tags_.empty()) {
    idle_cv_.notify_all();
  }
  // No work_cv_ wake-up: freeing one tag makes at most one queued request
  // claimable (that tag's next), and this worker's own rescan claims it.
}

void IoEngine::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (std::optional<Pending> p = ClaimLocked()) {
      lock.unlock();
      Execute(*p);
      lock.lock();
      continue;
    }
    if (stop_) {
      return;
    }
    work_cv_.wait(lock);
  }
}

bool ProbeDirectIo(const std::string& directory) {
#if !defined(O_DIRECT)
  (void)directory;
  return false;
#else
  static std::atomic<uint64_t> counter{0};
  const std::string path = directory + "/.direct_probe." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(counter.fetch_add(1));
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_DIRECT, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return false;  // filesystem refuses O_DIRECT at open (tmpfs, overlayfs, ...)
  }
  bool ok = false;
  void* buf = std::aligned_alloc(kIoAlignment, kIoAlignment);
  if (buf != nullptr) {
    std::memset(buf, 0x5a, kIoAlignment);
    ssize_t w;
    do {
      w = ::pwrite(fd, buf, kIoAlignment, 0);
    } while (w < 0 && errno == EINTR);
    if (w == static_cast<ssize_t>(kIoAlignment)) {
      std::memset(buf, 0, kIoAlignment);
      ssize_t r;
      do {
        r = ::pread(fd, buf, kIoAlignment, 0);
      } while (r < 0 && errno == EINTR);
      ok = r == static_cast<ssize_t>(kIoAlignment) &&
           static_cast<unsigned char*>(buf)[0] == 0x5a;
    }
    std::free(buf);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return ok;
#endif
}

}  // namespace mariusgnn
