// In-epoch pipeline controller: decides the stage-1 sampling-worker count from a
// per-window signal vector instead of a single end-of-epoch efficiency number.
//
// The pipeline's three stages share one ThreadPool, so the split between stage-1
// sampling workers and stage-3 compute chunks is a zero-sum allocation. The
// controller observes one window per partition set and moves the split one
// worker at a time with hysteresis:
//
//   1. compute_parallel_efficiency below the low threshold — compute chunks are
//      starved of pool threads — shrinks the sampling side (highest priority);
//   2. efficiency above the high threshold grows it back;
//   3. in the dead band the queue-depth signal refines the decision (the same
//      back-pressure reading credit-based pull schedulers use): a window whose
//      time-weighted queue occupancy sits near capacity means producers are ahead
//      of compute and extra samplers are wasted — shrink; a near-empty queue
//      combined with real consumer stall time means batch construction is the
//      bottleneck — grow;
//   4. windows dominated by unhidden partition-IO stalls hold: no worker split
//      can hide IO the prefetcher missed.
//
// Because the decision only ever changes the worker count — which the pipeline's
// determinism contract guarantees can never change the batch stream — mid-epoch
// resizes preserve bitwise-identical loss/MRR trajectories by construction, even
// though every input to the decision is host-timing noise.
#ifndef SRC_PIPELINE_PIPELINE_CONTROLLER_H_
#define SRC_PIPELINE_PIPELINE_CONTROLLER_H_

#include <vector>

#include "src/pipeline/training_pipeline.h"
#include "src/util/compute.h"

namespace mariusgnn {

struct PipelineControllerOptions {
  bool enabled = true;
  // Workers stay in [min_workers, max_workers] and start at max_workers;
  // max_workers == 0 (non-pipelined) pins the count at 0.
  int max_workers = 0;
  int min_workers = 1;
  // Stage-3 efficiency hysteresis band (rules 1-2).
  double par_eff_low = 0.40;
  double par_eff_high = 0.85;
  // Queue-occupancy band as fractions of queue capacity (rule 3).
  double queue_low = 0.25;
  double queue_high = 0.75;
  // A window whose io_stall exceeds this fraction of its wall time is IO-bound:
  // hold (rule 4).
  double io_stall_hold_fraction = 0.50;
  // Growing on a near-empty queue additionally requires the consumer to have
  // stalled for at least this fraction of the window (otherwise compute simply
  // kept up and the split is fine).
  double stall_grow_fraction = 0.05;
  // Decision cool-down for the queue back-pressure rules: after any worker-count
  // change, rule 3 is suppressed for this many subsequent windows. On hosts where
  // neither split wins, the queue-high shrink and the queue-low grow otherwise
  // ping-pong every window; the cool-down lets each move's effect show up in the
  // occupancy signal before the opposite rule may fire. The efficiency band
  // (rules 1-2) is not gated — it already has hysteresis, and starved compute
  // must be able to shed workers immediately.
  int queue_cooldown_windows = 2;
};

// One observation window: a partition set (memory mode: the whole epoch, its
// one set). Values are deltas over the window, not epoch cumulatives.
struct ControllerSignals {
  double compute_parallel_efficiency = 1.0;
  // Time-weighted mean queue occupancy as a fraction of capacity, [0, 1]
  // (PipelineStats::queue_occupancy_mean). Ignored unless has_queue_signal.
  double queue_occupancy_mean = 0.0;
  bool has_queue_signal = false;
  double pipeline_stall_seconds = 0.0;  // consumer blocked waiting for a batch
  double io_stall_seconds = 0.0;        // unhidden partition-IO stalls
  double window_seconds = 0.0;          // wall time of the window
};

class PipelineController {
 public:
  explicit PipelineController(PipelineControllerOptions options);

  // Sampling workers the next window should run with.
  int workers() const { return workers_; }

  // Feeds one window's signals and returns the updated worker count. Without a
  // queue signal (serial segments) only the efficiency band acts.
  int ObserveWindow(const ControllerSignals& signals);

  // Partition-set boundary hook: observes the set's window and, when more sets
  // remain in the epoch, applies a changed decision to the live session via
  // PipelineSession::Resize, counting it in *resize_count.
  void ObserveSetWindow(const ControllerSignals& signals, PipelineSession* session,
                        bool more_sets, int* resize_count);

  // Full set-boundary report: records the set's worker decision into
  // *workers_per_set, assembles the signal window from the segment's stats and
  // the compute/IO deltas, and feeds ObserveSetWindow. The epoch loop
  // (TrainerBase::RunEpoch) reports every set through this single entry point.
  // Sets that trained nothing (ps.num_items == 0) are recorded but not observed.
  void ReportSetBoundary(const PipelineStats& ps, const ComputeStats& compute_now,
                         const ComputeStats& compute_before, double io_stall_delta,
                         double window_seconds, bool more_sets,
                         PipelineSession* session, std::vector<int>* workers_per_set,
                         int* resize_count);

  const PipelineControllerOptions& options() const { return options_; }

  // Windows left before the queue rules may act again (0 = not cooling down).
  int queue_cooldown_remaining() const { return cooldown_remaining_; }

  // Checkpoint/restore of the controller's decision state, so a resumed run
  // reports the same worker counts as the uninterrupted one (the trajectory is
  // worker-invariant either way). `workers` is clamped to the configured range.
  void RestoreState(int workers, int cooldown_remaining);

 private:
  int Shrink();
  int Grow();
  void ObserveWindowImpl(const ControllerSignals& signals);

  PipelineControllerOptions options_;
  int workers_;
  int cooldown_remaining_ = 0;
};

}  // namespace mariusgnn

#endif  // SRC_PIPELINE_PIPELINE_CONTROLLER_H_
