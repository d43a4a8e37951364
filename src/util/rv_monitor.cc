#include "src/util/rv_monitor.h"

#include <cstdio>
#include <cstdlib>

#include "src/util/logging.h"

namespace mariusgnn {

const char* RvInvariantName(RvInvariant invariant) {
  switch (invariant) {
    case RvInvariant::kTicketOrder:
      return "pipeline.ticket_order";
    case RvInvariant::kIoTagOrder:
      return "io_engine.tag_order";
    case RvInvariant::kCommFoldOrder:
      return "comm.fold_order";
    case RvInvariant::kCommReplicaHash:
      return "comm.replica_hash";
    case RvInvariant::kCount:
      break;
  }
  return "unknown";
}

RvSink::~RvSink() = default;

void LoggingRvSink::OnViolation(const RvViolation& violation) {
  LogError("RV violation [%s]: %s", RvInvariantName(violation.invariant),
           violation.detail.c_str());
}

void AbortRvSink::OnViolation(const RvViolation& violation) {
  std::fprintf(stderr, "RV violation [%s]: %s\n",
               RvInvariantName(violation.invariant), violation.detail.c_str());
  std::fflush(stderr);
  std::abort();
}

RvRuntime::RvRuntime() {
  for (auto& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
}

RvRuntime& RvRuntime::Global() {
  static RvRuntime* runtime = new RvRuntime();  // leaked: outlives all threads
  return *runtime;
}

RvSink* RvRuntime::set_sink(RvSink* sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  RvSink* prev = sink_;
  sink_ = sink;
  return prev;
}

void RvRuntime::Report(RvInvariant invariant, std::string detail) {
  counts_[static_cast<int>(invariant)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  RvViolation violation{invariant, std::move(detail)};
  std::lock_guard<std::mutex> lock(sink_mu_);
  (sink_ ? sink_ : &default_sink_)->OnViolation(violation);
}

uint64_t RvRuntime::violations(RvInvariant invariant) const {
  return counts_[static_cast<int>(invariant)].load(std::memory_order_relaxed);
}

uint64_t RvRuntime::TotalViolations() const {
  return total_.load(std::memory_order_relaxed);
}

void RvRuntime::ResetViolations() {
  for (auto& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
}

}  // namespace mariusgnn
