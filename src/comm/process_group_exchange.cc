#include "src/comm/process_group_exchange.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"
#include "src/util/timer.h"

namespace mariusgnn {

namespace {

// Message kinds on the star's framed streams ([u32 kind][u64 len][payload]).
constexpr uint32_t kMsgHello = 1;
constexpr uint32_t kMsgStep = 2;
constexpr uint32_t kMsgStepResult = 3;
constexpr uint32_t kMsgEpochHash = 4;
constexpr uint32_t kMsgEpochHashResult = 5;
constexpr uint32_t kMsgBarrier = 6;
constexpr uint32_t kMsgBarrierResult = 7;

constexpr size_t kFrameHeaderBytes = sizeof(uint32_t) + sizeof(uint64_t);

// Full blocking write; aborts on any failure — a dead peer must kill the
// training run before a partial reduction can ever be applied.
void WriteAll(int fd, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    MG_CHECK_MSG(n > 0,
                 "gradient exchange: connection dropped mid-send (replica died?)");
    p += static_cast<size_t>(n);
    len -= static_cast<size_t>(n);
  }
}

void ReadAll(int fd, void* data, size_t len) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    MG_CHECK_MSG(n > 0,
                 "gradient exchange: connection dropped mid-receive (replica died?)");
    p += static_cast<size_t>(n);
    len -= static_cast<size_t>(n);
  }
}

void AppendBytes(std::vector<uint8_t>* buf, const void* data, size_t len) {
  if (len == 0) {
    return;  // data may be null (empty vector's data()) — not a valid range
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf->insert(buf->end(), p, p + len);
}

template <typename T>
void AppendVal(std::vector<uint8_t>* buf, T v) {
  AppendBytes(buf, &v, sizeof(v));
}

// Bounds-checked read cursor over a received payload.
struct Cursor {
  const uint8_t* p;
  const uint8_t* end;

  size_t Remaining() const { return static_cast<size_t>(end - p); }

  void Read(void* out, size_t len) {
    if (len == 0) {
      return;  // out may be null (empty vector's data()); memcpy requires valid
    }
    // Compare against Remaining() rather than `p + len <= end`: for a huge
    // corrupt len the pointer addition itself would overflow (UB) before the
    // comparison ever ran.
    MG_CHECK_MSG(len <= Remaining(), "gradient exchange: truncated message");
    std::memcpy(out, p, len);
    p += len;
  }

  template <typename T>
  T Get() {
    T v;
    Read(&v, sizeof(v));
    return v;
  }
};

}  // namespace

std::vector<uint8_t> SerializeContribution(const GradientStep& step) {
  std::vector<uint8_t> buf;
  AppendVal<uint8_t>(&buf, step.has_batch ? 1 : 0);
  AppendVal<float>(&buf, step.loss);
  const uint32_t num_dense =
      (step.has_batch && step.dense != nullptr)
          ? static_cast<uint32_t>(step.dense->size())
          : 0;
  AppendVal<uint32_t>(&buf, num_dense);
  for (uint32_t i = 0; i < num_dense; ++i) {
    const Tensor& g = (*step.dense)[i]->grad;
    AppendVal<uint64_t>(&buf, static_cast<uint64_t>(g.size()));
    AppendBytes(&buf, g.data(), static_cast<size_t>(g.size()) * sizeof(float));
  }
  const bool has_sparse = step.has_batch && step.sparse_nodes != nullptr &&
                          !step.sparse_nodes->empty();
  const uint64_t rows = has_sparse ? step.sparse_nodes->size() : 0;
  const int64_t dim = has_sparse ? step.sparse_grads->cols() : 0;
  AppendVal<uint64_t>(&buf, rows);
  AppendVal<int64_t>(&buf, dim);
  if (has_sparse) {
    MG_CHECK(step.sparse_grads->rows() == static_cast<int64_t>(rows));
    AppendBytes(&buf, step.sparse_nodes->data(), rows * sizeof(int64_t));
    AppendBytes(&buf, step.sparse_grads->data(),
                rows * static_cast<size_t>(dim) * sizeof(float));
  }
  return buf;
}

StepContribution ParseContribution(const std::vector<uint8_t>& payload,
                                   int32_t rank) {
  Cursor c{payload.data(), payload.data() + payload.size()};
  StepContribution out;
  out.rank = rank;
  out.has_batch = c.Get<uint8_t>() != 0;
  out.loss = c.Get<float>();
  // Every on-wire count is validated against the REMAINING payload before
  // anything is sized from it: a corrupt or desynced frame must abort as a
  // truncated message, never trigger a giant allocation. Each dense entry
  // carries at least its own u64 length; each sparse row carries at least one
  // node id / one float per dim (division also sidesteps rows * dim overflow).
  const uint32_t num_dense = c.Get<uint32_t>();
  MG_CHECK_MSG(num_dense <= c.Remaining() / sizeof(uint64_t),
               "gradient exchange: truncated message");
  out.dense.resize(num_dense);
  for (uint32_t i = 0; i < num_dense; ++i) {
    const uint64_t elems = c.Get<uint64_t>();
    MG_CHECK_MSG(elems <= c.Remaining() / sizeof(float),
                 "gradient exchange: truncated message");
    out.dense[i].resize(elems);
    c.Read(out.dense[i].data(), elems * sizeof(float));
  }
  const uint64_t rows = c.Get<uint64_t>();
  out.sparse_dim = c.Get<int64_t>();
  MG_CHECK_MSG(out.sparse_dim >= 0 && (rows == 0) == (out.sparse_dim == 0),
               "gradient exchange: corrupt sparse geometry");
  MG_CHECK_MSG(rows <= c.Remaining() / sizeof(int64_t),
               "gradient exchange: truncated message");
  out.sparse_nodes.resize(rows);
  c.Read(out.sparse_nodes.data(), rows * sizeof(int64_t));
  MG_CHECK_MSG(out.sparse_dim == 0 ||
                   rows <= c.Remaining() / sizeof(float) /
                               static_cast<uint64_t>(out.sparse_dim),
               "gradient exchange: truncated message");
  out.sparse_grads.resize(rows * static_cast<size_t>(out.sparse_dim));
  c.Read(out.sparse_grads.data(), out.sparse_grads.size() * sizeof(float));
  return out;
}

namespace {

// The coordinator's own contribution, copied out of the step (the broadcast
// serializer and the fold both outlive the caller's tensors' gradient values).
StepContribution ContributionFromStep(const GradientStep& step, int32_t rank) {
  StepContribution out;
  out.rank = rank;
  out.has_batch = step.has_batch;
  out.loss = step.loss;
  if (step.has_batch && step.dense != nullptr) {
    out.dense.reserve(step.dense->size());
    for (const Parameter* p : *step.dense) {
      out.dense.emplace_back(p->grad.data(), p->grad.data() + p->grad.size());
    }
  }
  if (step.has_batch && step.sparse_nodes != nullptr &&
      !step.sparse_nodes->empty()) {
    out.sparse_nodes = *step.sparse_nodes;
    out.sparse_dim = step.sparse_grads->cols();
    out.sparse_grads.assign(step.sparse_grads->data(),
                            step.sparse_grads->data() + step.sparse_grads->size());
  }
  return out;
}

}  // namespace

std::vector<uint8_t> SerializeFolded(const FoldedStep& folded) {
  std::vector<uint8_t> buf;
  const uint32_t world = static_cast<uint32_t>(folded.losses.size());
  AppendVal<uint32_t>(&buf, world);
  for (uint32_t r = 0; r < world; ++r) {
    AppendVal<uint8_t>(&buf, folded.contributed[r]);
    AppendVal<float>(&buf, folded.losses[r]);
  }
  AppendVal<uint32_t>(&buf, static_cast<uint32_t>(folded.dense.size()));
  for (const std::vector<float>& g : folded.dense) {
    AppendVal<uint64_t>(&buf, static_cast<uint64_t>(g.size()));
    AppendBytes(&buf, g.data(), g.size() * sizeof(float));
  }
  AppendVal<uint64_t>(&buf, static_cast<uint64_t>(folded.sparse_nodes.size()));
  AppendVal<int64_t>(&buf, folded.sparse_dim);
  AppendBytes(&buf, folded.sparse_nodes.data(),
              folded.sparse_nodes.size() * sizeof(int64_t));
  AppendBytes(&buf, folded.sparse_grads.data(),
              folded.sparse_grads.size() * sizeof(float));
  return buf;
}

FoldedStep ParseFolded(const std::vector<uint8_t>& payload, int32_t world) {
  Cursor c{payload.data(), payload.data() + payload.size()};
  FoldedStep out;
  const uint32_t w = c.Get<uint32_t>();
  MG_CHECK_MSG(w == static_cast<uint32_t>(world),
               "gradient exchange: world-size mismatch in reduced step");
  out.losses.resize(w);
  out.contributed.resize(w);
  for (uint32_t r = 0; r < w; ++r) {
    out.contributed[r] = c.Get<uint8_t>();
    out.losses[r] = c.Get<float>();
  }
  // Same count-vs-remaining validation as ParseContribution: never size a
  // vector from an on-wire count the payload cannot actually back.
  const uint32_t num_dense = c.Get<uint32_t>();
  MG_CHECK_MSG(num_dense <= c.Remaining() / sizeof(uint64_t),
               "gradient exchange: truncated message");
  out.dense.resize(num_dense);
  for (uint32_t i = 0; i < num_dense; ++i) {
    const uint64_t elems = c.Get<uint64_t>();
    MG_CHECK_MSG(elems <= c.Remaining() / sizeof(float),
                 "gradient exchange: truncated message");
    out.dense[i].resize(elems);
    c.Read(out.dense[i].data(), elems * sizeof(float));
  }
  const uint64_t rows = c.Get<uint64_t>();
  out.sparse_dim = c.Get<int64_t>();
  MG_CHECK_MSG(out.sparse_dim >= 0 && (rows == 0) == (out.sparse_dim == 0),
               "gradient exchange: corrupt sparse geometry");
  MG_CHECK_MSG(rows <= c.Remaining() / sizeof(int64_t),
               "gradient exchange: truncated message");
  out.sparse_nodes.resize(rows);
  c.Read(out.sparse_nodes.data(), rows * sizeof(int64_t));
  MG_CHECK_MSG(out.sparse_dim == 0 ||
                   rows <= c.Remaining() / sizeof(float) /
                               static_cast<uint64_t>(out.sparse_dim),
               "gradient exchange: truncated message");
  out.sparse_grads.resize(rows * static_cast<size_t>(out.sparse_dim));
  c.Read(out.sparse_grads.data(), out.sparse_grads.size() * sizeof(float));
  return out;
}

FoldedStep OrderedFold(const std::vector<StepContribution>& contributions,
                       int32_t world, RvFoldOrderMonitor* monitor) {
  FoldedStep out;
  out.losses.assign(static_cast<size_t>(world), 0.0f);
  out.contributed.assign(static_cast<size_t>(world), 0);

  // Index contributions by rank: the fold below walks ranks ascending, so the
  // result is independent of the container's (network-arrival) order.
  std::vector<const StepContribution*> by_rank(static_cast<size_t>(world), nullptr);
  for (const StepContribution& c : contributions) {
    MG_CHECK_MSG(c.rank >= 0 && c.rank < world,
                 "gradient exchange: contribution rank out of range");
    MG_CHECK_MSG(by_rank[static_cast<size_t>(c.rank)] == nullptr,
                 "gradient exchange: duplicate contribution for one rank");
    by_rank[static_cast<size_t>(c.rank)] = &c;
  }

  if (monitor != nullptr) {
    monitor->BeginReduction();
  }
  bool first_dense = true;
  std::unordered_map<int64_t, size_t> row_of;
  for (int32_t r = 0; r < world; ++r) {
    const StepContribution* c = by_rank[static_cast<size_t>(r)];
    MG_CHECK_MSG(c != nullptr, "gradient exchange: missing contribution");
    out.losses[static_cast<size_t>(r)] = c->loss;
    out.contributed[static_cast<size_t>(r)] = c->has_batch ? 1 : 0;
    if (!c->has_batch) {
      continue;
    }
    if (monitor != nullptr) {
      monitor->ObserveFold(r);
    }
    // Dense: the lowest contributing rank's buffers seed the sums (preserving
    // its exact bits, including signed zeros), later ranks add in rank order.
    if (first_dense) {
      out.dense = c->dense;
      first_dense = false;
    } else {
      MG_CHECK_MSG(out.dense.size() == c->dense.size(),
                   "gradient exchange: dense parameter count mismatch");
      for (size_t i = 0; i < out.dense.size(); ++i) {
        MG_CHECK(out.dense[i].size() == c->dense[i].size());
        float* acc = out.dense[i].data();
        const float* add = c->dense[i].data();
        for (size_t j = 0; j < out.dense[i].size(); ++j) {
          acc[j] += add[j];
        }
      }
    }
    // Sparse: merge touched rows per node. The merged node list is in
    // first-touch order of this ascending fold; repeated nodes sum in rank
    // order — both deterministic for any arrival order.
    if (!c->sparse_nodes.empty()) {
      if (out.sparse_dim == 0) {
        out.sparse_dim = c->sparse_dim;
      }
      MG_CHECK_MSG(out.sparse_dim == c->sparse_dim,
                   "gradient exchange: sparse dim mismatch");
      const size_t dim = static_cast<size_t>(out.sparse_dim);
      for (size_t k = 0; k < c->sparse_nodes.size(); ++k) {
        const int64_t node = c->sparse_nodes[k];
        const float* row = c->sparse_grads.data() + k * dim;
        auto [it, inserted] = row_of.emplace(node, out.sparse_nodes.size());
        if (inserted) {
          out.sparse_nodes.push_back(node);
          out.sparse_grads.insert(out.sparse_grads.end(), row, row + dim);
        } else {
          float* acc = out.sparse_grads.data() + it->second * dim;
          for (size_t j = 0; j < dim; ++j) {
            acc[j] += row[j];
          }
        }
      }
    }
  }
  return out;
}

ProcessGroupExchange::ProcessGroupExchange(const ReplicaOptions& options)
    : rank_(options.rank), world_(options.world_size) {
  MG_CHECK_MSG(world_ >= 2, "ProcessGroupExchange requires world_size >= 2");
  ConnectStar(options);
}

ProcessGroupExchange::~ProcessGroupExchange() {
  for (int fd : peers_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

void ProcessGroupExchange::ConnectStar(const ReplicaOptions& options) {
  if (rank_ == 0) {
    int listen_fd = options.listen_fd;
    if (listen_fd < 0) {
      MG_CHECK_MSG(options.port > 0,
                   "replica.port (or replica.listen_fd) must be set for rank 0");
      listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      MG_CHECK_MSG(listen_fd >= 0, "gradient exchange: socket() failed");
      const int one = 1;
      ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(options.port));
      MG_CHECK_MSG(::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) == 1,
                   "replica.host must be an IPv4 address");
      MG_CHECK_MSG(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "gradient exchange: bind failed (port in use?)");
      MG_CHECK_MSG(::listen(listen_fd, world_) == 0,
                   "gradient exchange: listen failed");
    }
    peers_.assign(static_cast<size_t>(world_), -1);
    for (int32_t i = 1; i < world_; ++i) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      MG_CHECK_MSG(fd >= 0, "gradient exchange: accept failed");
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::vector<uint8_t> hello = RecvFrame(fd, kMsgHello);
      Cursor c{hello.data(), hello.data() + hello.size()};
      const int32_t peer_rank = c.Get<int32_t>();
      MG_CHECK_MSG(peer_rank >= 1 && peer_rank < world_ &&
                       peers_[static_cast<size_t>(peer_rank)] < 0,
                   "gradient exchange: bad or duplicate hello rank");
      peers_[static_cast<size_t>(peer_rank)] = fd;
    }
    ::close(listen_fd);
  } else {
    MG_CHECK_MSG(options.port > 0, "replica.port must be set");
    int fd = -1;
    WallTimer timer;
    while (true) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      MG_CHECK_MSG(fd >= 0, "gradient exchange: socket() failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(options.port));
      MG_CHECK_MSG(::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) == 1,
                   "replica.host must be an IPv4 address");
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        break;
      }
      ::close(fd);
      fd = -1;
      MG_CHECK_MSG(timer.Seconds() < options.connect_timeout_seconds,
                   "gradient exchange: could not reach rank 0 before timeout");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    peers_.assign(1, fd);
    std::vector<uint8_t> hello;
    AppendVal<int32_t>(&hello, rank_);
    SendFrame(fd, kMsgHello, hello);
  }
}

void ProcessGroupExchange::SendFrame(int fd, uint32_t kind,
                                     const std::vector<uint8_t>& payload) {
  const uint64_t len = payload.size();
  WriteAll(fd, &kind, sizeof(kind));
  WriteAll(fd, &len, sizeof(len));
  if (len > 0) {
    WriteAll(fd, payload.data(), payload.size());
  }
  stats_.bytes_sent += kFrameHeaderBytes + payload.size();
}

std::vector<uint8_t> ProcessGroupExchange::RecvFrame(int fd,
                                                     uint32_t expect_kind) {
  uint32_t kind = 0;
  uint64_t len = 0;
  ReadAll(fd, &kind, sizeof(kind));
  MG_CHECK_MSG(kind == expect_kind,
               "gradient exchange: unexpected message kind (desynced stream)");
  ReadAll(fd, &len, sizeof(len));
  std::vector<uint8_t> payload(len);
  if (len > 0) {
    ReadAll(fd, payload.data(), payload.size());
  }
  stats_.bytes_received += kFrameHeaderBytes + payload.size();
  return payload;
}

void ProcessGroupExchange::CoordinateStep(const GradientStep& step) {
  std::vector<StepContribution> contributions;
  contributions.reserve(static_cast<size_t>(world_));
  contributions.push_back(ContributionFromStep(step, 0));
  for (int32_t r = 1; r < world_; ++r) {
    contributions.push_back(
        ParseContribution(RecvFrame(peers_[static_cast<size_t>(r)], kMsgStep), r));
  }
  folded_ = OrderedFold(contributions, world_, &fold_monitor_);
  // One serialized image, broadcast to every follower: all ranks apply the
  // identical bytes (the coordinator applies folded_ directly — the floats it
  // just serialized).
  const std::vector<uint8_t> image = SerializeFolded(folded_);
  for (int32_t r = 1; r < world_; ++r) {
    SendFrame(peers_[static_cast<size_t>(r)], kMsgStepResult, image);
  }
}

void ProcessGroupExchange::LoadResultFromFolded() {
  result_.losses = std::move(folded_.losses);
  result_.contributed = std::move(folded_.contributed);
  result_dense_.clear();
  result_dense_.reserve(folded_.dense.size());
  for (std::vector<float>& g : folded_.dense) {
    const int64_t elems = static_cast<int64_t>(g.size());
    result_dense_.emplace_back(1, elems, std::move(g));
  }
  result_.dense = &result_dense_;
  const int64_t rows = static_cast<int64_t>(folded_.sparse_nodes.size());
  if (rows > 0) {
    result_nodes_ = std::move(folded_.sparse_nodes);
    result_grads_ =
        Tensor(rows, folded_.sparse_dim, std::move(folded_.sparse_grads));
    result_.sparse_nodes = &result_nodes_;
    result_.sparse_grads = &result_grads_;
  } else {
    result_.sparse_nodes = nullptr;
    result_.sparse_grads = nullptr;
  }
  folded_ = FoldedStep();
}

const ReducedStep& ProcessGroupExchange::Exchange(const GradientStep& step) {
  WallTimer timer;
  if (rank_ == 0) {
    CoordinateStep(step);
  } else {
    SendFrame(peers_[0], kMsgStep, SerializeContribution(step));
    folded_ = ParseFolded(RecvFrame(peers_[0], kMsgStepResult), world_);
  }
  LoadResultFromFolded();
  stats_.blocking_seconds += timer.Seconds();
  return result_;
}

uint64_t ProcessGroupExchange::ExchangeEpochHash(uint64_t local_hash) {
  WallTimer timer;
  uint64_t agreed = local_hash;
  if (rank_ == 0) {
    for (int32_t r = 1; r < world_; ++r) {
      const std::vector<uint8_t> payload =
          RecvFrame(peers_[static_cast<size_t>(r)], kMsgEpochHash);
      Cursor c{payload.data(), payload.data() + payload.size()};
      const uint64_t peer_hash = c.Get<uint64_t>();
      if (peer_hash != local_hash) {
        RvRuntime::Global().Report(
            RvInvariant::kCommReplicaHash,
            "replica rank " + std::to_string(r) + " epoch hash " +
                std::to_string(peer_hash) + " disagrees with rank 0's " +
                std::to_string(local_hash));
      }
    }
    std::vector<uint8_t> payload;
    AppendVal<uint64_t>(&payload, local_hash);
    for (int32_t r = 1; r < world_; ++r) {
      SendFrame(peers_[static_cast<size_t>(r)], kMsgEpochHashResult, payload);
    }
  } else {
    std::vector<uint8_t> payload;
    AppendVal<uint64_t>(&payload, local_hash);
    SendFrame(peers_[0], kMsgEpochHash, payload);
    const std::vector<uint8_t> resp = RecvFrame(peers_[0], kMsgEpochHashResult);
    Cursor c{resp.data(), resp.data() + resp.size()};
    agreed = c.Get<uint64_t>();
    if (agreed != local_hash) {
      RvRuntime::Global().Report(
          RvInvariant::kCommReplicaHash,
          "replica rank " + std::to_string(rank_) + " epoch hash " +
              std::to_string(local_hash) + " disagrees with rank 0's " +
              std::to_string(agreed));
    }
  }
  stats_.blocking_seconds += timer.Seconds();
  return agreed;
}

void ProcessGroupExchange::Barrier() {
  WallTimer timer;
  const std::vector<uint8_t> empty;
  if (rank_ == 0) {
    // True rendezvous: receive from ALL ranks before releasing ANY rank, so no
    // rank passes the barrier until every rank has reached it.
    for (int32_t r = 1; r < world_; ++r) {
      RecvFrame(peers_[static_cast<size_t>(r)], kMsgBarrier);
    }
    for (int32_t r = 1; r < world_; ++r) {
      SendFrame(peers_[static_cast<size_t>(r)], kMsgBarrierResult, empty);
    }
  } else {
    SendFrame(peers_[0], kMsgBarrier, empty);
    RecvFrame(peers_[0], kMsgBarrierResult);
  }
  stats_.blocking_seconds += timer.Seconds();
}

}  // namespace mariusgnn
