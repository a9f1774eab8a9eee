// Wall-clock backends: a thread pool of one OS thread per modeled worker,
// driven by the same Scheduler/TaskLifecycle machinery as the DES backend.
//
// Two concrete substrates share one drive loop:
//  - ComputeBackend runs the numeric kernels on the blocks of a TileStore
//    (the "actual execution" curves of the paper, homogeneous CPU only):
//    classic, TilePlan and fused serving-batch graphs alike;
//  - EmulationBackend sleeps each task's calibrated duration scaled by
//    `time_scale` (heterogeneous platforms without the hardware), with
//    cancellable attempts so the fault watchdog can abort overruns.
//
// Unlike the DES backend, wall-clock failures (numeric, starvation, fault
// budget) are reported through RunReport::error_kind instead of thrown:
// exceptions cannot cross the worker threads.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/tile_store.hpp"
#include "kernels/pack_cache.hpp"
#include "runtime/backend.hpp"
#include "runtime/cancel.hpp"

namespace hetsched {

class ThreadedBackend : public Backend {
 public:
  void drive(RunEngine& engine) final;

 protected:
  /// Substrate setup before the worker pool starts / teardown after it
  /// joins and the report is assembled (the compute backend resolves its
  /// pack cache here and writes the cache counters into the report).
  virtual void on_drive_start(RunEngine&) {}
  virtual void on_drive_end(RunEngine&) {}

  /// True when in-flight attempts can be aborted mid-run (sliced sleeps
  /// can; non-idempotent numeric kernels cannot).
  virtual bool cancellable() const = 0;

  /// One task attempt on `worker`. `cancel` is non-null only for
  /// cancellable attempts. Must be called WITHOUT the runtime lock.
  virtual void run_task(RunEngine& engine, int worker, int task,
                        const std::atomic<bool>* cancel) = 0;

  /// Maps the measured wall-clock duration to the reported makespan.
  virtual double makespan_from(double elapsed_s) const = 0;
};

/// Per-job outcome of a compute run.
enum class JobRunOutcome {
  kOk,         ///< every task executed
  kNumeric,    ///< poisoned by a non-SPD POTRF pivot (not retryable)
  kCancelled,  ///< poisoned by an explicit token cancel
  kDeadline,   ///< poisoned by the token's deadline tripping
  kIncomplete, ///< the run aborted before this job finished
};

struct JobRunResult {
  JobRunOutcome outcome = JobRunOutcome::kIncomplete;
  std::string error;     ///< non-empty only for kNumeric
  int tasks_run = 0;     ///< kernels actually executed
  int tasks_skipped = 0; ///< no-op completions after poisoning
};

/// Executes the numeric kernels on the blocks of `store` (factorized in
/// place). The graph may fuse several independent jobs: `job_of` maps a
/// task to its job (empty = every task is job 0) and `tokens` holds one
/// CancelToken per job, so its size is the job count (null entries
/// allowed; empty = one job without a token).
///
/// Failure isolation is per job: a job whose token fires or whose POTRF
/// hits a non-SPD pivot is *poisoned* -- its remaining tasks complete as
/// no-ops at every attempt (so a fault-recovery re-push cannot resurrect
/// it) and the run carries on for the other jobs. A run in which every
/// job failed numerically reports success = false, error_kind = Numeric
/// with the first failing POTRF's message. Each attempt binds the pack
/// geometry resolved for its block size and bumps the pack-cache epoch of
/// every block it writes. Borrowed arguments must outlive the run.
class ComputeBackend final : public ThreadedBackend {
 public:
  explicit ComputeBackend(TileStore& store, std::span<const int> job_of = {},
                          std::vector<const CancelToken*> tokens = {});
  const char* name() const override { return "compute"; }
  const char* error_prefix() const override { return "scheduled executor"; }

  /// Per-job outcomes, valid after the run. On a failed run (all workers
  /// dead, starvation, run-level cancel) unfinished jobs stay kIncomplete.
  const std::vector<JobRunResult>& results() const { return results_; }

 protected:
  void on_drive_start(RunEngine& engine) override;
  void on_drive_end(RunEngine& engine) override;
  bool cancellable() const override { return false; }
  void run_task(RunEngine& engine, int worker, int task,
                const std::atomic<bool>* cancel) override;
  double makespan_from(double elapsed_s) const override { return elapsed_s; }

 private:
  struct JobCounters {
    std::atomic<bool> poisoned{false};  // checked lock-free every attempt
    std::atomic<int> run{0};
    std::atomic<int> skipped{0};
  };
  void poison(int job, JobRunOutcome why, const std::string& err);

  TileStore& store_;
  std::span<const int> job_of_;
  std::vector<const CancelToken*> tokens_;
  std::unique_ptr<JobCounters[]> jobs_;
  std::mutex result_mu_;  // guards results_ and first_numeric_
  std::vector<JobRunResult> results_;
  std::string first_numeric_;
  /// The process cache when RunOptions::pack_cache is set, else nullptr.
  kernels::PackedTileCache* cache_ = nullptr;
  kernels::PackCacheStats cache_baseline_;
};

/// Sleeps each task's calibrated duration scaled by `time_scale`.
class EmulationBackend final : public ThreadedBackend {
 public:
  explicit EmulationBackend(double time_scale) : time_scale_(time_scale) {}
  const char* name() const override { return "emulation"; }
  const char* error_prefix() const override { return "scheduled executor"; }

 protected:
  bool cancellable() const override { return true; }
  void run_task(RunEngine& engine, int worker, int task,
                const std::atomic<bool>* cancel) override;
  double makespan_from(double elapsed_s) const override {
    return elapsed_s / time_scale_;
  }

 private:
  double time_scale_;
};

}  // namespace hetsched
