#include "serve/batch.hpp"

#include <utility>

#include "core/cholesky_dag.hpp"

namespace hetsched::serve {

BatchPlan build_batch_plan(int jobs, int tiles, int nb) {
  BatchPlan plan;
  const TaskGraph base = build_cholesky_dag(tiles, nb);
  plan.tasks_per_job = base.num_tasks();
  plan.job_of.reserve(
      static_cast<std::size_t>(jobs) *
      static_cast<std::size_t>(base.num_tasks()));
  // Tile handles are offset by a per-job stride so the fused graph's data
  // footprint stays disjoint across jobs: job b's tile (i, j) is handle
  // b * num_lower_tiles(tiles) + tile_linear_index(i, j), the numbering of
  // a TileStore borrowing the B job matrices in order.
  const int tile_stride = num_lower_tiles(tiles);
  for (int b = 0; b < jobs; ++b) {
    const int task_off = b * base.num_tasks();
    for (const Task& t : base.tasks()) {
      std::vector<TaskAccess> accesses = t.accesses;
      for (TaskAccess& a : accesses) a.tile += b * tile_stride;
      plan.graph.add_task(t.kernel, t.k, t.i, t.j, t.flops,
                          std::move(accesses));
      plan.job_of.push_back(b);
    }
    for (const Task& t : base.tasks())
      for (const int succ : base.successors(t.id))
        plan.graph.add_edge(task_off + t.id, task_off + succ);
  }
  return plan;
}

}  // namespace hetsched::serve
