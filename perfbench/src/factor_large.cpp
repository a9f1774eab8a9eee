// factor-large: a closed loop of real tiled Cholesky factorizations of a
// 16x16-tile, nb=320 matrix (n = 5120, ~110 MB lower triangle, about the
// size of a server L3) through execute_parallel on 4 threads with the
// default priority order and pack cache. Kernel-bound; DES, bounds and
// serve do no timed work here.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common.hpp"

namespace perfbench {
namespace {

using hetsched::TileMatrix;

constexpr int kTiles = 16;
constexpr int kNb = 320;
constexpr int kSetupReps = 3;

// The stored lower triangle of tile (i, j); on diagonal tiles only r >= c
// belongs to the matrix (the rest of the block is scratch).
template <class F>
void for_lower(const TileMatrix& a, F&& f) {
  const int nt = a.n_tiles();
  const int nb = a.nb();
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j <= i; ++j) {
      const double* t = a.tile(i, j);
      for (int c = 0; c < nb; ++c)
        for (int r = (i == j ? c : 0); r < nb; ++r)
          f(i * nb + r, j * nb + c, t[static_cast<std::size_t>(c) * static_cast<std::size_t>(nb) + static_cast<std::size_t>(r)]);
    }
}

struct Reference {
  std::vector<double> x;   // seeded probe vector
  std::vector<double> ax;  // A x, taken before A is overwritten by L
  double norm_a = 0.0;     // Frobenius norm of the symmetric A
  double norm_x = 0.0;
};

Reference reference(const TileMatrix& a, SeedStream& rng) {
  const auto n = static_cast<std::size_t>(a.n_elems());
  Reference ref;
  ref.x.resize(n);
  for (double& v : ref.x) v = 2.0 * rng.uniform() - 1.0;
  ref.ax.assign(n, 0.0);
  double fro = 0.0;
  for_lower(a, [&](int r, int c, double v) {
    const auto ur = static_cast<std::size_t>(r);
    const auto uc = static_cast<std::size_t>(c);
    ref.ax[ur] += v * ref.x[uc];
    if (r != c) {
      ref.ax[uc] += v * ref.x[ur];
      fro += 2.0 * v * v;
    } else {
      fro += v * v;
    }
  });
  ref.norm_a = std::sqrt(fro);
  double nx = 0.0;
  for (double v : ref.x) nx += v * v;
  ref.norm_x = std::sqrt(nx);
  return ref;
}

// ||A x - L (L^T x)|| / (||A|| ||x||), O(n^2).
double residual(const TileMatrix& l, const Reference& ref) {
  const std::size_t n = ref.x.size();
  std::vector<double> ltx(n, 0.0);
  for_lower(l, [&](int r, int c, double v) {
    ltx[static_cast<std::size_t>(c)] += v * ref.x[static_cast<std::size_t>(r)];
  });
  std::vector<double> lltx(n, 0.0);
  for_lower(l, [&](int r, int c, double v) {
    lltx[static_cast<std::size_t>(r)] += v * ltx[static_cast<std::size_t>(c)];
  });
  double num = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double d = ref.ax[k] - lltx[k];
    num += d * d;
  }
  const double res = std::sqrt(num) / (ref.norm_a * ref.norm_x);
  return std::isfinite(res) ? res : std::numeric_limits<double>::infinity();
}

}  // namespace

Result run_factor_large(const Config& cfg, Tracer& tr) {
  Result out;
  SeedStream rng(cfg.seed ^ 0xfac7041a12eULL);
  const int threads = std::min(4, cfg.nproc);
  // Normwise backward error of a stable Cholesky is O(n eps); a wrong
  // kernel or a lost update lands orders of magnitude above this.
  const double tol =
      16.0 * kTiles * kNb * std::numeric_limits<double>::epsilon();
  double worst_residual = 0.0;

  hetsched::ExecOptions opt;
  opt.num_threads = threads;
  opt.record_trace = false;

  // One checked factorization of `a` refilled from the next matrix seed;
  // returns the harness-side wall seconds of the execute_parallel call.
  const auto factorize = [&](TileMatrix& a, const hetsched::TaskGraph& g,
                             hetsched::RunReport& rep) {
    {
      Scope s(tr, "core.refill_synthetic_spd");
      a.refill_synthetic_spd(rng.next_u32());
    }
    Reference ref;
    {
      Scope s(tr, "bench.reference_product");
      ref = reference(a, rng);
    }
    double sec = 0.0;
    {
      Scope s(tr, "runtime.execute_parallel");
      const double t0 = now_s();
      rep = hetsched::execute_parallel(a, g, opt);
      sec = now_s() - t0;
      tr.add_tasks(s.id(), rep.trace);
    }
    Scope s(tr, "bench.residual");
    const double res = rep.success ? residual(a, ref)
                                   : std::numeric_limits<double>::infinity();
    worst_residual = std::max(worst_residual, res);
    out.check(rep.success && res <= tol);
    return sec;
  };

  // Set-up, repeated: input generation, DAG, local calibration and its
  // bounds, and one warm-up factorization (pack-cache fills, first touch).
  std::vector<double> setup_s, spd_s, dag_s, mixed_s, alap_s;
  std::vector<hetsched::Platform> locals;
  std::unique_ptr<TileMatrix> a;
  hetsched::TaskGraph g;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    Scope s(tr, "bench.setup");
    const double t0 = now_s();
    a.reset();
    {
      Scope c(tr, "core.synthetic_spd");
      const double c0 = now_s();
      a = std::make_unique<TileMatrix>(
          TileMatrix::synthetic_spd(kTiles, kNb, rng.next_u32()));
      spd_s.push_back(now_s() - c0);
    }
    {
      Scope c(tr, "core.build_cholesky_dag");
      const double c0 = now_s();
      g = hetsched::build_cholesky_dag(kTiles, kNb);
      dag_s.push_back(now_s() - c0);
    }
    {
      Scope c(tr, "platform.measured_local_platform");
      locals.push_back(hetsched::measured_local_platform(threads, kNb, 5));
    }
    {
      Scope c(tr, "bounds.evaluate_bound_s");
      mixed_s.push_back(
          hetsched::bounds::evaluate_bound_s("mixed", g, locals.back()));
      alap_s.push_back(
          hetsched::bounds::evaluate_bound_s("alap", g, locals.back()));
    }
    hetsched::RunReport warm;
    factorize(*a, g, warm);
    setup_s.push_back(now_s() - t0);
  }
  // The calibration whose mixed bound is the median of the set-ups.
  std::vector<std::size_t> order(locals.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return mixed_s[x] < mixed_s[y]; });
  const std::size_t mid = order[order.size() / 2];

  // Measured closed loop. The traced run alternates record_trace off/on
  // so the same process also yields the tracing overhead.
  std::vector<double> wall, wall_traced, wall_plain, makespan, overhead_ms,
      busy_frac, nonbusy_us;
  std::int64_t hits = 0, misses = 0, evictions = 0, bytes = 0, dropped = 0;
  const double t_end = now_s() + cfg.seconds;
  {
    Scope s(tr, "bench.measure");
    for (int k = 0; k == 0 || now_s() < t_end; ++k) {
      opt.record_trace = cfg.trace && (k % 2 == 1);
      hetsched::RunReport rep;
      const double sec = factorize(*a, g, rep);
      wall.push_back(sec);
      (opt.record_trace ? wall_traced : wall_plain).push_back(sec);
      makespan.push_back(rep.makespan_s);
      overhead_ms.push_back((rep.wall_seconds - rep.makespan_s) * 1e3);
      hits += rep.pack_hits;
      misses += rep.pack_misses;
      evictions += rep.pack_evictions;
      bytes += rep.pack_bytes;
      dropped += rep.dropped_events;
      if (opt.record_trace && rep.success) {
        double busy = 0.0;
        for (int w = 0; w < threads; ++w) busy += rep.trace.busy_seconds(w);
        const double cap = threads * rep.trace.makespan();
        busy_frac.push_back(busy / cap);
        nonbusy_us.push_back((cap - busy) / static_cast<double>(g.num_tasks()) * 1e6);
      }
    }
  }

  const double p50 = median(wall);
  const Tail tail = tail_of(wall);
  double timed = 0.0;
  for (double w : wall) timed += w;
  const double flops = hetsched::cholesky_flops(kTiles * kNb);
  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("p50_ms", p50 * 1e3, "ms");
  out.e2e("tail_ms", tail.value * 1e3, "ms");
  out.e2e("throughput_per_s", static_cast<double>(wall.size()) / timed, "1/s");

  out.detail("factor_s_p50", p50);
  out.detail("factor_s_tail", tail.value);
  out.detail("factor_gflops", flops * static_cast<double>(wall.size()) / timed / 1e9);
  out.detail("tail_pct", tail.pct);
  out.detail("tail_samples", static_cast<double>(tail.samples));
  out.detail("worst_residual", worst_residual);
  out.detail("residual_tol", tol);
  out.detail("threads", threads);
  out.detail("tiles", kTiles);
  out.detail("nb", kNb);

  if (cfg.trace) {
    kernel_rates(out, tr, kNb);
    const double n = static_cast<double>(wall.size());
    out.layer("core.spd_gen_s", median(spd_s), "s");
    out.layer("core.dag_build_s", median(dag_s), "s");
    const double lookups = static_cast<double>(hits + misses);
    out.layer("kernels.pack_hit_rate", lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio");
    out.layer("kernels.pack_misses", static_cast<double>(misses) / n, "count");
    out.layer("kernels.pack_evictions", static_cast<double>(evictions) / n, "count");
    out.layer("kernels.pack_mib", static_cast<double>(bytes) / n / (1 << 20), "MiB");
    out.layer("runtime.tasks", static_cast<double>(g.num_tasks()), "count");
    out.layer("runtime.busy_frac", median(busy_frac), "ratio");
    out.layer("runtime.nonbusy_us_per_task", median(nonbusy_us), "us");
    out.layer("runtime.drive_overhead_ms", median(overhead_ms), "ms");

    // The measurement ladder: bound -> DES -> real run, all on the
    // calibration measured during set-up.
    const hetsched::Platform& local = locals[mid];
    double des = 0.0;
    {
      Scope s(tr, "sim.simulate");
      auto sched = hetsched::sched::make_scheduler("priority", g, local);
      hetsched::RunOptions ro;
      ro.record_trace = false;
      des = hetsched::simulate(g, local, *sched, ro).makespan_s;
    }
    out.check(des >= mixed_s[mid] && des >= alap_s[mid]);
    const double measured = median(makespan);
    out.layer("bounds.local_mixed_s", mixed_s[mid], "s");
    out.layer("bounds.local_alap_s", alap_s[mid], "s");
    out.layer("sim.local_makespan_s", des, "s");
    out.layer("sched.gap_vs_mixed_local", des / mixed_s[mid], "ratio");
    out.layer("runtime.gap_vs_des", measured / des, "ratio");
    out.layer("runtime.gap_vs_mixed", measured / mixed_s[mid], "ratio");
    out.layer("obs.trace_overhead_frac", median(wall_traced) / median(wall_plain) - 1.0, "ratio");
    out.layer("obs.dropped_events", static_cast<double>(dropped), "count");
  }
  return out;
}

}  // namespace perfbench
