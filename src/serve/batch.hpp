// Batch mode of the serving layer: many small factorization jobs sharing
// one (tiles, nb) geometry fused into a single task graph driven by one
// scheduler instance (docs/serving.md).
//
// The fused graph is B disjoint copies of the single-job Cholesky DAG
// (task and tile handles offset per job), so one RunEngine run schedules
// every job's tasks through one worker pool: graph construction is
// amortized, workers never idle between jobs, and the packed-tile cache
// stays warm across the batch -- the small-nb regime where BENCH_runtime
// shows the cache pays most.
//
// The batch runs on the one compute backend (runtime/threaded_backend.hpp)
// over a borrowing TileStore of the B job matrices: the fused graph's tile
// handles are exactly the store's handles, and job_of feeds the backend's
// per-job failure isolation (a cancelled or non-SPD job is poisoned, the
// batch carries on for everyone else).
#pragma once

#include <vector>

#include "core/task_graph.hpp"

namespace hetsched::serve {

/// The fused DAG of one batch plus the task -> job mapping.
struct BatchPlan {
  TaskGraph graph;
  std::vector<int> job_of;    ///< fused task id -> job index
  int tasks_per_job = 0;
};

/// Builds the fused graph of `jobs` independent Cholesky factorizations
/// of `tiles` x `tiles` matrices with `nb` x `nb` tiles.
BatchPlan build_batch_plan(int jobs, int tiles, int nb);

}  // namespace hetsched::serve
