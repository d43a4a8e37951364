#include "src/storage/io_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "src/storage/io_arena.h"
#include "src/util/check.h"

namespace mariusgnn {

namespace {

// Cap on a single coalesced write-back transfer. Keeps one merged write from
// monopolising a worker (and the device's bandwidth term) for too long.
constexpr size_t kMaxCoalescedBytes = 8u << 20;  // 8 MiB

}  // namespace

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
  const int outstanding = static_cast<int>(sq_.size()) + inflight_;
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
        stats_.inflight_peak, static_cast<int>(sq_.size()) + inflight_);
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
        stats_.inflight_peak, static_cast<int>(sq_.size()) + inflight_);
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
  idle_cv_.wait(lock, [&] { return sq_.empty() && inflight_ == 0; });
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

std::vector<IoEngine::Pending> IoEngine::ClaimLocked() {
  std::vector<Pending> batch;
  // Scan the submission queue in order. A request is claimable when its tag has
  // no in-flight request and no earlier queued request (per-tag program order).
  // The first claimable *read* wins (reads gate the next partition set); a
  // read that is blocked only by an earlier claimable same-tag write elevates
  // that write instead (the read cannot start until it lands anyway); failing
  // both, the first claimable write runs.
  std::unordered_set<int32_t> earlier_tags;
  std::unordered_map<int32_t, size_t> claimable_write;  // tag -> queue index
  size_t pick = sq_.size();
  size_t first_write = sq_.size();
  for (size_t i = 0; i < sq_.size(); ++i) {
    const Pending& p = sq_[i];
    const int32_t tag = p.req.tag;
    const bool tag_free =
        earlier_tags.count(tag) == 0 && tag_busy_.count(tag) == 0;
    if (p.req.kind == IoRequest::Kind::kRead) {
      if (tag_free) {
        pick = i;
        break;
      }
      auto it = claimable_write.find(tag);
      if (it != claimable_write.end()) {
        pick = it->second;  // elevate the write this read is stuck behind
        break;
      }
    } else if (tag_free) {
      if (first_write == sq_.size()) {
        first_write = i;
      }
      claimable_write.emplace(tag, i);
    }
    earlier_tags.insert(tag);
  }
  if (pick == sq_.size()) {
    pick = first_write;
  }
  if (pick == sq_.size()) {
    return batch;  // everything queued is ordered behind an in-flight request
  }

  const bool is_write = sq_[pick].req.kind == IoRequest::Kind::kWrite;
  batch.push_back(std::move(sq_[pick]));
  sq_.erase(sq_.begin() + static_cast<ptrdiff_t>(pick));

  if (is_write) {
    // Grow the batch with queued writes adjacent to its byte range. A partner
    // must itself be claimable *given the batch*: no in-flight same-tag
    // request, and every earlier queued same-tag request already in the batch
    // (an earlier same-tag read must not be jumped — write-after-read). Batch
    // members are not yet counted in tag_busy_, so same-tag partners whose
    // predecessor is the batch itself merge naturally.
    uint64_t lo = batch.front().req.offset;
    uint64_t hi = lo + batch.front().req.bytes;
    size_t total = batch.front().req.bytes;
    bool grew = true;
    while (grew && total < kMaxCoalescedBytes) {
      grew = false;
      std::unordered_set<int32_t> queued_earlier;
      for (size_t i = 0; i < sq_.size(); ++i) {
        const Pending& p = sq_[i];
        const int32_t tag = p.req.tag;
        const bool mergeable =
            p.req.kind == IoRequest::Kind::kWrite &&
            queued_earlier.count(tag) == 0 && tag_busy_.count(tag) == 0 &&
            (p.req.offset == hi || p.req.offset + p.req.bytes == lo) &&
            total + p.req.bytes <= kMaxCoalescedBytes;
        if (mergeable) {
          lo = std::min(lo, p.req.offset);
          hi = std::max(hi, p.req.offset + p.req.bytes);
          total += p.req.bytes;
          batch.push_back(std::move(sq_[i]));
          sq_.erase(sq_.begin() + static_cast<ptrdiff_t>(i));
          stats_.coalesced_writes += 1;
          grew = true;
          break;  // ranges changed; rescan from the front
        }
        queued_earlier.insert(tag);
      }
    }
  }

  for (const Pending& p : batch) {
    // io_engine.tag_order: claiming is starting. Batch members are claimed in
    // queue order, which the coalescing loop keeps equal to per-tag submission
    // order, so seq must be increasing per tag across every claim.
    rv_tag_order_.ObserveStart(p.req.tag, p.seq);
    tag_busy_[p.req.tag] += 1;
  }
  inflight_ += static_cast<int>(batch.size());
  return batch;
}

void IoEngine::ExecuteBatch(std::vector<Pending>* batch) {
  if (options_.before_io) {
    for (const Pending& p : *batch) {
      options_.before_io(p.req);
    }
  }

  // Issue a transfer in max_transfer_bytes slices (test seam; 0 = one slice).
  const auto transfer = [&](const IoRequest::Kind kind, void* dst,
                            const void* src, size_t bytes, uint64_t offset) {
    const size_t step =
        options_.max_transfer_bytes > 0 ? options_.max_transfer_bytes : bytes;
    size_t done = 0;
    while (done < bytes) {
      const size_t n = std::min(step, bytes - done);
      if (kind == IoRequest::Kind::kRead) {
        disk_->Read(static_cast<char*>(dst) + done, n, offset + done);
      } else {
        disk_->Write(static_cast<const char*>(src) + done, n, offset + done);
      }
      done += n;
    }
  };

  const int depth = options_.queue_depth;
  std::vector<double> modeled(batch->size(), 0.0);
  if (batch->size() == 1) {
    const IoRequest& r = batch->front().req;
    transfer(r.kind, r.dst, r.src, r.bytes, r.offset);
    modeled[0] = disk_->model().SecondsForAtDepth(r.bytes,
                                                  disk_->OpsFor(r.bytes), depth);
  } else {
    // Coalesced write-back: assemble the adjacent ranges into one aligned
    // scratch buffer and issue a single device transfer. The whole point —
    // modeled ops are charged for the merged extent, not per request.
    std::sort(batch->begin(), batch->end(),
              [](const Pending& a, const Pending& b) {
                return a.req.offset < b.req.offset;
              });
    const uint64_t lo = batch->front().req.offset;
    size_t total = 0;
    for (const Pending& p : *batch) {
      total += p.req.bytes;
    }
    AlignedBuffer scratch((total + sizeof(float) - 1) / sizeof(float));
    for (const Pending& p : *batch) {
      std::memcpy(reinterpret_cast<char*>(scratch.data()) +
                      (p.req.offset - lo),
                  p.req.src, p.req.bytes);
    }
    transfer(IoRequest::Kind::kWrite, nullptr, scratch.data(), total, lo);
    const double merged_seconds =
        disk_->model().SecondsForAtDepth(total, disk_->OpsFor(total), depth);
    // Each member owns its share of the merged cost, proportional to bytes.
    for (size_t i = 0; i < batch->size(); ++i) {
      modeled[i] = merged_seconds *
                   (static_cast<double>((*batch)[i].req.bytes) /
                    static_cast<double>(total));
    }
  }

  for (size_t i = 0; i < batch->size(); ++i) {
    if ((*batch)[i].done) {
      (*batch)[i].done(modeled[i]);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    NoteEventLocked();
    for (const Pending& p : *batch) {
      auto it = tag_busy_.find(p.req.tag);
      if (--(it->second) == 0) {
        tag_busy_.erase(it);
      }
    }
    inflight_ -= static_cast<int>(batch->size());
    if (sq_.empty() && inflight_ == 0) {
      idle_cv_.notify_all();
    }
  }
  // Completed tags may unblock several queued requests at once.
  work_cv_.notify_all();
}

void IoEngine::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::vector<Pending> batch = ClaimLocked();
    if (!batch.empty()) {
      lock.unlock();
      ExecuteBatch(&batch);
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
