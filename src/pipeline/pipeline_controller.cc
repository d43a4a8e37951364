#include "src/pipeline/pipeline_controller.h"

#include <algorithm>

#include "src/util/check.h"

namespace mariusgnn {

PipelineController::PipelineController(PipelineControllerOptions options)
    : options_(options), workers_(std::max(0, options.max_workers)) {
  options_.max_workers = std::max(0, options_.max_workers);
  options_.min_workers = std::min(std::max(1, options_.min_workers),
                                  std::max(1, options_.max_workers));
  options_.enabled = options_.enabled && options_.max_workers > 0;
  MG_CHECK(options_.par_eff_low <= options_.par_eff_high);
  MG_CHECK(options_.queue_low <= options_.queue_high);
  MG_CHECK(options_.queue_cooldown_windows >= 0);
}

void PipelineController::RestoreState(int workers, int cooldown_remaining) {
  workers_ = std::min(std::max(workers, options_.max_workers > 0
                                            ? options_.min_workers
                                            : 0),
                      options_.max_workers);
  cooldown_remaining_ = std::max(0, cooldown_remaining);
}

int PipelineController::Shrink() {
  if (workers_ > options_.min_workers) {
    --workers_;
  }
  return workers_;
}

int PipelineController::Grow() {
  if (workers_ < options_.max_workers) {
    ++workers_;
  }
  return workers_;
}

int PipelineController::ObserveWindow(const ControllerSignals& signals) {
  if (!options_.enabled) {
    return workers_;
  }
  const int before = workers_;
  ObserveWindowImpl(signals);
  // Any change (from any rule) arms the queue-rule cool-down: the next
  // queue_cooldown_windows windows let the move's effect reach the occupancy
  // signal before the opposite queue rule may fire, damping the shrink/grow
  // ping-pong on hosts where neither split wins.
  if (workers_ != before) {
    cooldown_remaining_ = options_.queue_cooldown_windows;
  } else if (cooldown_remaining_ > 0) {
    --cooldown_remaining_;
  }
  return workers_;
}

void PipelineController::ObserveWindowImpl(const ControllerSignals& signals) {
  // Rules 1-2: the efficiency hysteresis band. These dominate the queue signal so
  // that forced-threshold tests stay deterministic.
  if (signals.compute_parallel_efficiency < options_.par_eff_low) {
    Shrink();
    return;
  }
  if (signals.compute_parallel_efficiency > options_.par_eff_high) {
    Grow();
    return;
  }
  if (!signals.has_queue_signal) {
    return;  // dead band, no refinement
  }
  // Rule 4: IO-bound window — the stall is on the storage layer, not the split.
  if (signals.window_seconds > 0.0 &&
      signals.io_stall_seconds >
          options_.io_stall_hold_fraction * signals.window_seconds) {
    return;
  }
  // Rule 3: queue back-pressure refinement inside the dead band, suppressed
  // while a previous decision's cool-down is still running.
  if (cooldown_remaining_ > 0) {
    return;
  }
  if (signals.queue_occupancy_mean > options_.queue_high) {
    Shrink();
    return;
  }
  if (signals.queue_occupancy_mean < options_.queue_low &&
      signals.window_seconds > 0.0 &&
      signals.pipeline_stall_seconds >
          options_.stall_grow_fraction * signals.window_seconds) {
    Grow();
  }
}

void PipelineController::ObserveSetWindow(const ControllerSignals& signals,
                                          PipelineSession* session, bool more_sets,
                                          int* resize_count) {
  const int next = ObserveWindow(signals);
  if (session != nullptr && more_sets && session->workers() > 0 &&
      next != session->workers()) {
    session->Resize(next);
    if (resize_count != nullptr) {
      ++(*resize_count);
    }
  }
}

void PipelineController::ReportSetBoundary(
    const PipelineStats& ps, const ComputeStats& compute_now,
    const ComputeStats& compute_before, double io_stall_delta,
    double window_seconds, bool more_sets, PipelineSession* session,
    std::vector<int>* workers_per_set, int* resize_count) {
  if (workers_per_set != nullptr) {
    workers_per_set->push_back(session->workers());
  }
  if (ps.num_items == 0) {
    return;  // nothing trained in this set; no signal worth observing
  }
  ControllerSignals signals;
  signals.compute_parallel_efficiency =
      compute_now.ParallelEfficiencySince(compute_before);
  signals.queue_occupancy_mean = ps.queue_occupancy_mean;
  signals.has_queue_signal = ps.workers > 0;
  signals.pipeline_stall_seconds = ps.stall_seconds;
  signals.io_stall_seconds = io_stall_delta;
  signals.window_seconds = window_seconds;
  ObserveSetWindow(signals, session, more_sets, resize_count);
}

}  // namespace mariusgnn
