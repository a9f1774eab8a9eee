// TilePlan: text round-trip and validation, the uniform base-level
// early-return's graph identity with the classic builder, mixed-plan DAG
// structure (SPLIT/MERGE repacks, per-task nb stamps), numeric
// correctness of the plan executor against the sequential reference, and
// the auto-tuner's never-worse-than-uniform guarantee.
#include "core/tile_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "core/dense_matrix.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_cholesky.hpp"
#include "exec/plan_executor.hpp"
#include "partition/auto_tune.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

/// A plan that mixes three granularities: base panels, a level-1 trailing
/// submatrix, one level-2 corner cell, and a fine diagonal cell whose
/// coarse column consumers force MERGE views (the trailing splits force
/// SPLIT views).
TilePlan mixed_plan(int n_tiles, int base_nb) {
  TilePlan plan = TilePlan::uniform(n_tiles, base_nb);
  for (int i = 2; i < n_tiles; ++i)
    for (int j = 2; j <= i; ++j) plan.set_level(i, j, 1);
  plan.set_level(n_tiles - 1, n_tiles - 1, 2);
  plan.set_level(1, 1, 1);
  return plan;
}

TEST(TilePlan, TextRoundTrip) {
  const TilePlan plan = mixed_plan(4, 32);
  EXPECT_EQ(plan.validate(), "");
  const TilePlan back = TilePlan::from_text(plan.to_text());
  EXPECT_EQ(back, plan);
}

TEST(TilePlan, FromTextAcceptsComments) {
  const TilePlan p = TilePlan::from_text(
      "# hand-written plan\n"
      "2 64\n"
      "0\n"
      "1 1  # trailing row split in half\n");
  EXPECT_EQ(p.n_tiles, 2);
  EXPECT_EQ(p.base_nb, 64);
  EXPECT_EQ(p.level(0, 0), 0);
  EXPECT_EQ(p.level(1, 0), 1);
  EXPECT_EQ(p.level(1, 1), 1);
}

TEST(TilePlan, FromTextRejectsMalformedInput) {
  EXPECT_THROW(TilePlan::from_text(""), std::invalid_argument);
  EXPECT_THROW(TilePlan::from_text("2 64\n0\n"), std::invalid_argument);
  EXPECT_THROW(TilePlan::from_text("2 64\n0\n9 0\n"), std::invalid_argument);
  EXPECT_THROW(TilePlan::from_text("2 64\n0\nx 0\n"), std::invalid_argument);
}

TEST(TilePlan, ValidateRejectsIndivisibleBaseNb) {
  // base_nb = 6 cannot be halved twice; level 1 is fine, level 2 is not.
  EXPECT_EQ(TilePlan::uniform(2, 6, 1).validate(), "");
  EXPECT_NE(TilePlan::uniform(2, 6, 2).validate(), "");
  EXPECT_THROW(build_cholesky_dag_plan(TilePlan::uniform(2, 6, 2)),
               std::invalid_argument);
}

// The bit-for-bit compatibility contract: a uniform base-level plan must
// lower to the exact graph the classic builder produces -- same tasks,
// same fields, same edges -- so every pre-TilePlan workload is untouched.
TEST(TilePlan, UniformBasePlanBuildsIdenticalGraph) {
  const int n = 5, nb = 8;
  const TaskGraph classic = build_cholesky_dag(n, nb);
  PlanLayout layout;
  const TaskGraph planned =
      build_cholesky_dag_plan(TilePlan::uniform(n, nb), &layout);

  ASSERT_EQ(planned.num_tasks(), classic.num_tasks());
  ASSERT_EQ(planned.num_edges(), classic.num_edges());
  for (int id = 0; id < classic.num_tasks(); ++id) {
    const Task& a = classic.task(id);
    const Task& b = planned.task(id);
    EXPECT_EQ(a.kernel, b.kernel) << "task " << id;
    EXPECT_EQ(a.k, b.k) << "task " << id;
    EXPECT_EQ(a.i, b.i) << "task " << id;
    EXPECT_EQ(a.j, b.j) << "task " << id;
    EXPECT_EQ(a.flops, b.flops) << "task " << id;
    EXPECT_EQ(a.nb, b.nb) << "task " << id;
    EXPECT_EQ(b.nb, -1) << "uniform tasks must keep the -1 pricing default";
    ASSERT_EQ(a.accesses.size(), b.accesses.size()) << "task " << id;
    for (std::size_t x = 0; x < a.accesses.size(); ++x) {
      EXPECT_EQ(a.accesses[x].tile, b.accesses[x].tile) << "task " << id;
      EXPECT_EQ(a.accesses[x].mode, b.accesses[x].mode) << "task " << id;
    }
    const auto pa = classic.predecessors(id);
    const auto pb = planned.predecessors(id);
    ASSERT_EQ(pa.size(), pb.size()) << "task " << id;
    for (std::size_t x = 0; x < pa.size(); ++x)
      EXPECT_EQ(pa[x], pb[x]) << "task " << id;
  }
  // The layout still describes the classic storage: one handle per lower
  // tile, all canonical full-size blocks.
  ASSERT_EQ(layout.num_handles(), num_lower_tiles(n));
  for (const PlanHandle& h : layout.handles) {
    EXPECT_EQ(h.nb, nb);
    EXPECT_FALSE(h.view);
  }
}

TEST(TilePlan, MixedPlanGraphHasRepacksAndNbStamps) {
  const TilePlan plan = mixed_plan(4, 32);
  PlanLayout layout;
  const TaskGraph g = build_cholesky_dag_plan(plan, &layout);
  EXPECT_TRUE(g.is_dag());
  EXPECT_GT(layout.num_handles(), num_lower_tiles(4));

  int splits = 0, merges = 0;
  bool saw_level1_compute = false;
  for (const Task& t : g.tasks()) {
    if (t.kernel == Kernel::SPLIT) ++splits;
    if (t.kernel == Kernel::MERGE) ++merges;
    if (is_repack(t.kernel)) {
      EXPECT_GT(t.nb, 0) << "repack tasks price by their region extent";
    } else {
      // Mixed graphs stamp every compute task with its own tile size.
      EXPECT_GT(t.nb, 0) << t.name();
      if (t.nb == 16) saw_level1_compute = true;
    }
  }
  EXPECT_GT(splits, 0);
  EXPECT_GT(merges, 0);
  EXPECT_TRUE(saw_level1_compute);
}

// Simulating the uniform plan graph must be indistinguishable from the
// classic graph (same objects in, same pricing path).
TEST(TilePlan, UniformPlanSimulatesBitForBitLikeClassic) {
  const Platform p = testutil::tiny_hetero();
  const TaskGraph classic = build_cholesky_dag(6, p.nb());
  const TaskGraph planned =
      build_cholesky_dag_plan(TilePlan::uniform(6, p.nb()));
  const auto s1 = sched::make_scheduler("dmdas", classic, p);
  const auto s2 = sched::make_scheduler("dmdas", planned, p);
  EXPECT_EQ(simulate(classic, p, *s1).makespan_s,
            simulate(planned, p, *s2).makespan_s);
}

struct PlanExecCase {
  int n_tiles;
  int base_nb;
  int level;  ///< -1 = the mixed_plan fixture, else a uniform level
};

class PlanExecutorSweep : public ::testing::TestWithParam<PlanExecCase> {};

// The real-execution acceptance bar: factorizing through the plan
// executor (TileStore blocks, SPLIT/MERGE repacks, per-region pack
// geometry) matches the sequential tiled reference.
TEST_P(PlanExecutorSweep, MatchesSequentialReference) {
  const auto [n, nb, level] = GetParam();
  const TilePlan plan =
      level < 0 ? mixed_plan(n, nb) : TilePlan::uniform(n, nb, level);
  ASSERT_EQ(plan.validate(), "");

  const DenseMatrix a = DenseMatrix::random_spd(n * nb, 31);
  TileMatrix ref = TileMatrix::from_dense(a, n, nb);
  ASSERT_TRUE(tiled_cholesky_sequential(ref));

  TileMatrix m = TileMatrix::from_dense(a, n, nb);
  ExecOptions opt;
  opt.num_threads = 3;
  opt.record_trace = false;
  const RunReport rep = execute_plan_parallel(m, plan, opt);
  ASSERT_TRUE(rep.success) << rep.error;
  EXPECT_LT(DenseMatrix::max_abs_diff_lower(ref.to_dense(), m.to_dense()),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(Plans, PlanExecutorSweep,
                         ::testing::Values(PlanExecCase{4, 32, -1},
                                           PlanExecCase{3, 32, 1},
                                           PlanExecCase{2, 32, 2},
                                           PlanExecCase{5, 16, -1},
                                           PlanExecCase{4, 24, 1}));

TEST(PlanExecutor, NonSpdFailureLeavesInputUntouched) {
  const int n = 3, nb = 16;
  DenseMatrix zero(n * nb, n * nb);  // not positive definite
  TileMatrix m = TileMatrix::from_dense(zero, n, nb);
  ExecOptions opt;
  opt.num_threads = 2;
  opt.record_trace = false;
  const RunReport rep = execute_plan_parallel(m, mixed_plan(n, nb), opt);
  EXPECT_FALSE(rep.success);
  EXPECT_EQ(rep.error_kind, RunErrorKind::Numeric);
  EXPECT_NE(rep.error.find("POTRF on tile (0, 0)"), std::string::npos)
      << rep.error;
  EXPECT_LT(DenseMatrix::max_abs_diff_lower(zero, m.to_dense()), 1e-300);
}

TEST(AutoTune, NeverWorseThanBestUniformAndReproducible) {
  const Platform p = testutil::tiny_hetero();
  partition::AutoTuneOptions opt;
  opt.policy = "dmdas";
  const partition::AutoTuneResult res = partition::auto_tune(4, p.nb(), p, opt);
  EXPECT_EQ(res.plan.validate(), "");
  EXPECT_LE(res.makespan_s, res.uniform_makespan_s);
  // The reported makespan is the plan's actual rollout value (same DES,
  // deterministic), and the seed level's uniform rollout matches too.
  EXPECT_EQ(partition::rollout_makespan_s(res.plan, p, "dmdas"),
            res.makespan_s);
  EXPECT_EQ(partition::rollout_makespan_s(
                TilePlan::uniform(4, p.nb(), res.uniform_level), p, "dmdas"),
            res.uniform_makespan_s);
  EXPECT_GE(res.rollouts, 1);
}

}  // namespace
}  // namespace hetsched
