// FactorizationServer: the long-lived serving front end (docs/serving.md).
//
// One dispatcher thread pulls admitted jobs from a BoundedJobQueue, fuses
// geometry-compatible jobs into batch task graphs (serve/batch.hpp) and
// drives each batch through a RunEngine on a worker pool. Resilience
// machinery around it:
//   - admission control: bounded depth with optional lowest-priority
//     shedding and a latency SLO (job_queue.hpp);
//   - per-job deadlines via CancelToken, enforced cooperatively while
//     queued and mid-run;
//   - retry with exponential backoff + seeded jitter for jobs caught in a
//     batch-level failure (all workers dead, starvation, shutdown races),
//     reusing the fault subsystem's RetryPolicy; numeric failures and
//     fired deadlines are terminal, never retried;
//   - graceful drain: stop admitting, finish (or cancel) in-flight and
//     queued work, flush metric sinks -- the daemon maps SIGTERM to this.
// Health is one MetricsAggregator-backed snapshot: queue depth,
// admit/shed/cancel tallies, per-job latency, pack-cache hit rate.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/tile_matrix.hpp"
#include "fault/fault_plan.hpp"
#include "obs/sink.hpp"
#include "obs/stream.hpp"
#include "platform/platform.hpp"
#include "serve/batch.hpp"
#include "serve/job_queue.hpp"

namespace hetsched::serve {

struct ServerOptions {
  int threads = 2;              ///< worker pool size of each batch run
  int max_batch = 8;            ///< jobs fused per batch graph
  /// SchedulerRegistry spec driving each batch run ("priority", "ws",
  /// "hybrid:static_fraction=0.6", ...). The default matches the
  /// historical hard-wired central priority queue (submission order).
  /// Validated by start(); an unknown name/option throws there.
  std::string policy = "priority";
  AdmissionControl admission;
  RetryPolicy retry;            ///< transient-failure budget + backoff
  double retry_jitter_frac = 0.25;  ///< backoff *= 1 + frac * U(-1, 1)
  unsigned seed = 0;            ///< jitter seed
  /// Injected into every batch run (tests, CI smoke, chaos drills).
  /// Death times are relative to each batch run's start.
  FaultPlan faults;
};

/// Point-in-time health snapshot: serving counters plus the aggregated
/// event-stream view of the batch runs (obs::MetricsAggregator).
struct ServeMetrics {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected_full = 0;
  std::int64_t rejected_latency = 0;
  std::int64_t rejected_draining = 0;
  std::int64_t rejected_bad = 0;
  std::int64_t shed = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t retries = 0;
  std::int64_t batches = 0;
  std::int64_t batched_jobs = 0;  ///< sum of batch sizes
  std::int64_t queue_depth = 0;
  std::int64_t inflight = 0;
  double est_service_ms = 0.0;     ///< admission EMA per job
  double latency_ms_mean = 0.0;    ///< completed jobs, admission -> done
  double latency_ms_max = 0.0;     ///< any terminal job
  double queue_ms_mean = 0.0;      ///< jobs that started running
  double uptime_s = 0.0;
  std::int64_t pack_hits = 0;
  std::int64_t pack_misses = 0;
  /// Bytes of job matrices the dispatcher holds for reuse: the last
  /// batch's inputs, never more (docs/serving.md).
  std::int64_t input_bytes = 0;
  /// Job matrices allocated so far; every other batch slot reused one.
  std::int64_t input_allocs = 0;
  std::int64_t worker_deaths = 0;   ///< across batch runs (injected faults)
  std::int64_t tasks_requeued = 0;
  /// Aggregated TraceEvent view of every batch run (event counts, running
  /// makespan, fault tallies) -- see obs/sink.hpp.
  obs::MetricsSnapshot stream;
};

class FactorizationServer {
 public:
  explicit FactorizationServer(const ServerOptions& opt = {});
  ~FactorizationServer();

  FactorizationServer(const FactorizationServer&) = delete;
  FactorizationServer& operator=(const FactorizationServer&) = delete;

  /// Starts the dispatcher. Throws std::invalid_argument for bad options
  /// (non-positive threads/max_batch, a fault plan naming unknown
  /// workers). Idempotent.
  void start();

  /// Admission decision for one job; never blocks on factorization work.
  /// Jobs may be submitted before start() (they queue) but not while
  /// draining.
  SubmitResult submit(const JobSpec& spec);

  /// Copyable view of one job's current record.
  struct JobStatus {
    bool known = false;
    int id = -1;
    JobSpec spec;
    JobState state = JobState::kQueued;
    int attempts = 0;
    std::string error;
    runtime::RunErrorKind error_kind = runtime::RunErrorKind::None;
    double queue_ms = 0.0;
    double latency_ms = 0.0;
  };
  JobStatus status(int id) const;
  /// Blocks until `id` reaches a terminal state (immediately for unknown
  /// ids, with known = false).
  JobStatus wait(int id);

  /// Stops admitting new jobs; queued and in-flight work continues.
  void drain();

  enum class Shutdown {
    kGraceful,       ///< drain: finish queued + in-flight jobs, then stop
    kCancelPending,  ///< cancel queued/delayed jobs, abort in-flight batch
  };
  /// Drains per `mode`, joins the dispatcher, leaves every job terminal.
  /// Metric sinks are flushed (each batch run flushes on completion).
  void shutdown(Shutdown mode = Shutdown::kGraceful);

  ServeMetrics metrics() const;
  /// The snapshot as one JSON object (single line; the daemon's METRICS
  /// reply and its exit report).
  std::string metrics_json() const;

  const ServerOptions& options() const { return opt_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Delayed {
    Clock::time_point when;
    JobPtr job;
  };

  void dispatch_loop();
  void run_batch(std::vector<JobPtr>& batch, CancelToken* batch_cancel,
                 std::unique_lock<std::mutex>& lock);
  const BatchPlan& plan_for(int jobs, int tiles, int nb);
  /// Makes inputs_ exactly the batch's matrices, refilled from the job
  /// seeds.
  void prepare_inputs(const std::vector<JobPtr>& batch, int tiles, int nb);
  void finalize_locked(const JobPtr& job, JobState state,
                       runtime::RunErrorKind kind, const std::string& error);

  ServerOptions opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_dispatch_;  // dispatcher: work / state change
  std::condition_variable cv_done_;      // waiters: a job went terminal
  BoundedJobQueue queue_;
  std::unordered_map<int, JobPtr> jobs_;
  std::vector<Delayed> delayed_;  // backed-off retries, unsorted
  int next_id_ = 1;
  int inflight_ = 0;
  bool started_ = false;
  bool draining_ = false;
  bool stopping_ = false;  // cancel-pending shutdown
  CancelToken* active_batch_cancel_ = nullptr;  // dispatcher stack, under mu_
  std::thread dispatcher_;
  std::mt19937_64 rng_;
  Clock::time_point started_at_{};
  ServeMetrics m_;  // counters under mu_ (stream/queue fields filled on read)
  double latency_ms_sum_ = 0.0;
  double queue_ms_sum_ = 0.0;
  std::int64_t queue_ms_count_ = 0;
  // Dispatcher-thread-only state (no lock): fused plans are cached per
  // (jobs, tiles, nb) so steady-state batches skip graph construction, and
  // the last batch's job matrices are kept and refilled in place by the
  // next batch of the same geometry (dropped when the geometry changes,
  // trimmed to each batch's size).
  std::map<std::tuple<int, int, int>, BatchPlan> plan_cache_;
  std::vector<TileMatrix> inputs_;
  std::int64_t input_allocs_ = 0;  // published to m_ after each batch
  Platform calibration_;  // homogeneous, sized to opt_.threads
  obs::TraceStreamer streamer_;
  obs::MetricsAggregator aggregator_;
};

}  // namespace hetsched::serve
