// The five public entry points, each a thin wrapper: construct a
// RunEngine, pick a Backend, run. Argument validation that predates the
// engine (thread counts, time scale, calibration shape) stays here so the
// original error messages survive.
#include <stdexcept>
#include <string>

#include "core/tile_store.hpp"
#include "exec/parallel_executor.hpp"
#include "exec/plan_executor.hpp"
#include "exec/scheduled_executor.hpp"
#include "platform/calibration.hpp"
#include "runtime/des_backend.hpp"
#include "runtime/engine.hpp"
#include "runtime/threaded_backend.hpp"
#include "sched/priority_sched.hpp"
#include "sim/simulator.hpp"

namespace hetsched {

namespace {

// The thread-pool discipline of execute_parallel / execute_plan_parallel:
// a homogeneous calibration sized to the pool keeps the scheduler contract
// satisfied for any graph (all kernels calibrated), and the central
// priority queue reproduces the historical thread-pool order.
RunReport run_pool(TileStore& store, const TaskGraph& g, const ExecOptions& opt,
                   const char* who) {
  if (opt.num_threads <= 0)
    throw std::invalid_argument(std::string(who) + ": num_threads <= 0");
  const Platform calibration = homogeneous_platform(opt.num_threads);
  CentralPriorityScheduler sched(opt.priorities);
  RunOptions ropt;
  ropt.record_trace = opt.record_trace;
  ropt.pack_cache = opt.pack_cache;
  ropt.cancel = opt.cancel;
  RunEngine engine(g, calibration, sched, ropt);
  ComputeBackend backend(store);
  return engine.run(backend);
}

}  // namespace

RunReport simulate(const TaskGraph& g, const Platform& p, Scheduler& sched,
                   const RunOptions& opt) {
  RunEngine engine(g, p, sched, opt);
  DiscreteEventBackend backend;
  return engine.run(backend);
}

RunReport execute_with_scheduler(TileMatrix& a, const TaskGraph& g,
                                 const Platform& calibration, Scheduler& sched,
                                 int num_threads, const RunOptions& opt) {
  if (num_threads <= 0)
    throw std::invalid_argument("execute_with_scheduler: num_threads <= 0");
  if (calibration.num_workers() != num_threads)
    throw std::invalid_argument(
        "execute_with_scheduler: calibration platform must model exactly "
        "num_threads workers (policies may queue tasks on any modeled "
        "worker)");
  RunEngine engine(g, calibration, sched, opt);
  TileStore store(a);
  ComputeBackend backend(store);
  return engine.run(backend);
}

RunReport emulate_with_scheduler(const TaskGraph& g,
                                 const Platform& calibration, Scheduler& sched,
                                 double time_scale, const RunOptions& opt) {
  if (time_scale <= 0.0)
    throw std::invalid_argument("emulate_with_scheduler: time_scale <= 0");
  RunEngine engine(g, calibration, sched, opt);
  EmulationBackend backend(time_scale);
  return engine.run(backend);
}

RunReport execute_plan_parallel(TileMatrix& a, const TilePlan& plan,
                                const ExecOptions& opt) {
  PlanLayout layout;
  const TaskGraph g = build_cholesky_dag_plan(plan, &layout);
  TileStore store(layout);
  store.import_from(a);
  RunReport report = run_pool(store, g, opt, "execute_plan_parallel");
  // A failed run leaves `a` at its input contents: the plan blocks hold a
  // partial factorization nothing downstream should consume.
  if (report.success) store.export_to(a);
  return report;
}

RunReport execute_parallel(TileMatrix& a, const TaskGraph& g,
                           const ExecOptions& opt) {
  TileStore store(a);
  return run_pool(store, g, opt, "execute_parallel");
}

}  // namespace hetsched
