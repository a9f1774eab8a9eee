// Real execution of variable tile-size (TilePlan) Cholesky graphs: the
// plan is lowered with build_cholesky_dag_plan, the matrix is imported
// into an owning TileStore (contiguous per-handle blocks), and the
// mixed-nb DAG -- SPLIT/MERGE repacks included -- runs on the same
// compute backend as the classic executors, with per-block pack geometry.
#pragma once

#include "core/tile_matrix.hpp"
#include "core/tile_plan.hpp"
#include "exec/parallel_executor.hpp"
#include "runtime/run_report.hpp"

namespace hetsched {

/// Factorizes `a` in place under `plan` on a thread pool, exactly like
/// execute_parallel: homogeneous calibration sized to the pool, central
/// priority queue (submission order unless opt.priorities says
/// otherwise). On success the factor is copied back into `a`; on failure
/// (non-SPD pivot, cancellation) `a` keeps its input contents and the
/// error is reported through the result.
RunReport execute_plan_parallel(TileMatrix& a, const TilePlan& plan,
                                const ExecOptions& opt = {});

}  // namespace hetsched
