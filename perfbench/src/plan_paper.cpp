// plan-paper: the paper's research loop with no numeric kernels, on one
// thread. One round answers every (size, platform) question of the fig-7
// grid -- build the DAG, evaluate the mixed, ALAP and area bounds, simulate
// every registered policy -- on the Mirage platform without and with
// communication, then auto-tunes a 10-tile partition. sim, sched, bounds,
// partition and core do all the work; every simulated output is
// deterministic, so schedule quality compares exactly and host time
// isolates host-side cost.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {
namespace {

using hetsched::Platform;
using hetsched::TaskGraph;

// bench::paper_sizes(), the fig-7 grid, frozen here so the workload does
// not move when the figure's sweep does.
constexpr int kSizes[] = {1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32};
constexpr int kTuneTiles = 10;
constexpr int kTuneNb = 960;
constexpr int kSetupReps = 3;
constexpr const char* kBounds[] = {"mixed", "alap", "area"};
constexpr const char* kBoundSpans[] = {"bounds.mixed", "bounds.alap",
                                       "bounds.area"};

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

struct Totals {
  std::map<std::string, double> sim_host_s;  // per policy
  std::map<std::string, double> sim_tasks;   // per policy
  std::map<std::string, std::int64_t> stats;
  double bound_host_s[3] = {0, 0, 0};
  double dag_s = 0.0;
  std::int64_t hops = 0;
  double bytes = 0.0;
};

}  // namespace

Result run_plan_paper(const Config& cfg, Tracer& tr) {
  Result out;
  const std::vector<std::string> policies = hetsched::sched::scheduler_names();

  // One (size, platform) question. Appends the makespan of every policy
  // (policy order) to `makespans`, and on the no-comm platform the mixed
  // bound to `mixed`; checks every makespan against every bound.
  const auto query = [&](int n, const Platform& p, bool comm, bool trace,
                         Totals& tot, std::vector<double>& makespans,
                         std::vector<double>& mixed) {
    double c0 = now_s();
    TaskGraph g;
    {
      Scope s(tr, "core.build_cholesky_dag");
      g = hetsched::build_cholesky_dag(n);
    }
    tot.dag_s += now_s() - c0;
    double bound[3];
    for (int b = 0; b < 3; ++b) {
      Scope s(tr, kBoundSpans[b]);
      c0 = now_s();
      bound[b] = hetsched::bounds::evaluate_bound_s(kBounds[b], g, p);
      tot.bound_host_s[b] += now_s() - c0;
    }
    for (const std::string& pol : policies) {
      std::unique_ptr<hetsched::Scheduler> sched;
      {
        Scope s(tr, "sched.make_scheduler");
        sched = hetsched::sched::make_scheduler(pol, g, p);
      }
      hetsched::RunOptions ro;
      ro.record_trace = trace;
      hetsched::RunReport rep;
      bool ok = true;
      {
        Scope s(tr, "sim.simulate");
        c0 = now_s();
        try {
          rep = hetsched::simulate(g, p, *sched, ro);
        } catch (const std::exception&) {
          ok = false;
        }
        tot.sim_host_s[pol] += now_s() - c0;
      }
      tot.sim_tasks[pol] += static_cast<double>(g.num_tasks());
      // A lower bound below a feasible makespan is a bug in one of them.
      for (double b : bound) ok = ok && rep.makespan_s >= b * (1.0 - 1e-12);
      out.check(ok && rep.success);
      makespans.push_back(rep.makespan_s);
      for (const auto& [k, v] : rep.scheduler_stats) tot.stats[k] += v;
      if (comm) {
        tot.hops += rep.transfer_hops;
        tot.bytes += rep.bytes_transferred;
      }
    }
    if (!comm) mixed.push_back(bound[0]);
  };

  const auto tune = [&](const Platform& p, hetsched::partition::AutoTuneResult& r) {
    {
      Scope s(tr, "partition.auto_tune");
      hetsched::partition::AutoTuneOptions o;
      o.policy = "dmdas";
      r = hetsched::partition::auto_tune(kTuneTiles, kTuneNb, p, o);
    }
    // The tuned plan is valid, never worse than its uniform seed, and its
    // simulated makespan respects the mixed bound of its own graph.
    Scope s(tr, "bench.check_plan");
    bool ok = r.plan.validate().empty() && r.makespan_s > 0.0 &&
              r.makespan_s <= r.uniform_makespan_s;
    if (ok)
      ok = r.makespan_s >= hetsched::bounds::evaluate_bound_s(
                               "mixed", hetsched::build_cholesky_dag_plan(r.plan), p) *
                               (1.0 - 1e-12);
    out.check(ok);
  };

  // Set-up, repeated: the two platforms and one warm-up pass over the grid
  // (registries, allocator).
  std::vector<double> setup_s;
  Platform comm = hetsched::mirage_platform();
  Platform nocomm = comm.without_communication();
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    Scope s(tr, "bench.setup");
    const double t0 = now_s();
    {
      Scope c(tr, "platform.mirage_platform");
      comm = hetsched::mirage_platform();
      nocomm = comm.without_communication();
    }
    Totals tot;
    std::vector<double> ms, mixed;
    for (int n : kSizes) {
      query(n, nocomm, false, false, tot, ms, mixed);
      query(n, comm, true, false, tot, ms, mixed);
    }
    setup_s.push_back(now_s() - t0);
  }

  // Measured rounds. The traced run alternates record_trace off/on.
  std::vector<double> query_s, round_s, grid_plain, grid_traced, tune_s;
  std::vector<double> first_makespans, mixed;
  Totals tot;
  hetsched::partition::AutoTuneResult tuned;
  const double t_end = now_s() + cfg.seconds;
  int rounds = 0;
  {
    Scope s(tr, "bench.measure");
    for (; rounds == 0 || now_s() < t_end; ++rounds) {
      const bool trace = cfg.trace && rounds % 2 == 1;
      std::vector<double> makespans;
      mixed.clear();
      double grid = 0.0;
      for (int pc = 0; pc < 2; ++pc)
        for (int n : kSizes) {
          const double t0 = now_s();
          query(n, pc == 0 ? nocomm : comm, pc == 1, trace, tot, makespans,
                mixed);
          query_s.push_back(now_s() - t0);
          grid += query_s.back();
        }
      (trace ? grid_traced : grid_plain).push_back(grid);
      const double t0 = now_s();
      tune(nocomm, tuned);
      tune_s.push_back(now_s() - t0);
      round_s.push_back(grid + tune_s.back());
      // Simulation is deterministic: every round reproduces the first.
      if (rounds == 0)
        first_makespans = makespans;
      else
        out.check(makespans == first_makespans);
    }
  }

  // Schedule quality on the no-comm sizes (the first cells of a round):
  // makespan / mixed bound, per policy and for the best policy per size.
  const std::size_t np = policies.size();
  std::vector<double> best_ratio;
  std::vector<std::vector<double>> ratio(np);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    double best = first_makespans[i * np];
    for (std::size_t k = 0; k < np; ++k) {
      ratio[k].push_back(first_makespans[i * np + k] / mixed[i]);
      best = std::min(best, first_makespans[i * np + k]);
    }
    best_ratio.push_back(best / mixed[i]);
  }
  const double gap_best = geomean(best_ratio);

  const Tail tail = tail_of(query_s);
  double total = 0.0;
  for (double r : round_s) total += r;
  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("p50_ms", median(query_s) * 1e3, "ms");
  out.e2e("tail_ms", tail.value * 1e3, "ms");
  out.e2e("throughput_per_s", static_cast<double>(rounds) / total, "1/s");

  std::vector<double> grid_all = grid_plain;
  grid_all.insert(grid_all.end(), grid_traced.begin(), grid_traced.end());
  out.detail("grid_s", median(grid_all));
  out.detail("autotune_s", median(tune_s));
  out.detail("sim_gap_best", gap_best);
  out.detail("tail_pct", tail.pct);
  out.detail("tail_samples", static_cast<double>(tail.samples));
  out.detail("rounds", rounds);
  out.detail("threads", 1);

  if (cfg.trace) {
    kernel_rates(out, tr, kTuneNb);
    const double r = static_cast<double>(rounds);
    double sim_s = 0.0, sim_tasks = 0.0;
    for (std::size_t k = 0; k < policies.size(); ++k) {
      const std::string& pol = policies[k];
      sim_s += tot.sim_host_s[pol];
      sim_tasks += tot.sim_tasks[pol];
      out.layer("sched.host_us_per_task." + pol,
                tot.sim_host_s[pol] / tot.sim_tasks[pol] * 1e6, "us");
      out.layer("sched.gap_geomean." + pol, geomean(ratio[k]), "ratio");
    }
    for (const auto& [k, v] : tot.stats)
      out.layer("sched.stats." + k, static_cast<double>(v) / r, "count");
    out.layer("core.dag_build_s", tot.dag_s / r, "s");
    out.layer("sim.gap_best", gap_best, "ratio");
    out.layer("sim.tasks_per_host_s", sim_tasks / sim_s, "1/s");
    out.layer("sim.transfer_hops", static_cast<double>(tot.hops) / r, "count");
    out.layer("sim.transfer_gb", tot.bytes / r / 1e9, "GB");
    for (int b = 0; b < 3; ++b)
      out.layer(std::string("bounds.") + kBounds[b] + "_s",
                tot.bound_host_s[b] / r, "s");
    out.layer("partition.autotune_s", median(tune_s), "s");
    out.layer("partition.rollouts", tuned.rollouts, "count");
    out.layer("partition.rounds", tuned.rounds, "count");
    out.layer("partition.us_per_rollout",
              median(tune_s) / tuned.rollouts * 1e6, "us");
    out.layer("partition.gain", tuned.uniform_makespan_s / tuned.makespan_s,
              "ratio");
    out.layer("obs.trace_overhead_frac",
              median(grid_traced) / median(grid_plain) - 1.0, "ratio");
  }
  return out;
}

}  // namespace perfbench
