// perfbench: the repository benchmark. Runs one workload through the public
// API and prints two JSON lines: a report (provenance, details, layer self
// times) and, last, the result {correct, attempted, failed, metrics}.
//
//   perfbench --workload factor-large|serve-small|plan-paper --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and FILE receives the run's spans as Chrome trace JSON.
// Exit status: 0 when every output checked out, 1 on a correctness
// failure, 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Config;
using perfbench::Metric;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "factor-large|serve-small|plan-paper --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

void print_metrics(const std::map<std::string, Metric>& m) {
  const char* sep = "";
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), v.value, v.unit.c_str());
    sep = ", ";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        cfg.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        cfg.trace = val == "1";
      } else if (key == "--trace-out") {
        trace_out = val;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
  cfg.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  perfbench::Tracer tr(cfg.trace);
  Result r;
  {
    perfbench::Scope root(tr, "bench.run");
    if (cfg.workload == "factor-large")
      r = perfbench::run_factor_large(cfg, tr);
    else if (cfg.workload == "serve-small")
      r = perfbench::run_serve_small(cfg, tr);
    else if (cfg.workload == "plan-paper")
      r = perfbench::run_plan_paper(cfg, tr);
    else
      usage("unknown workload " + cfg.workload);
  }

  double self_sum = 0.0;
  if (cfg.trace) {
    // Layer self times; together with the harness's own ("bench") time
    // they add up to the root span, i.e. the run's wall time.
    for (const auto& [layer, s] : tr.self_seconds()) {
      r.layer(layer + ".self_s", s, "s");
      self_sum += s;
    }
    if (!trace_out.empty()) tr.write_chrome(trace_out);
  }

  const double fail_frac =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("{\"report\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"fail_frac\": %.17g, "
              "\"provenance\": {\"kernel_tier\": \"%s\", \"nproc\": %d, "
              "\"l3_bytes\": %ld}",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, fail_frac,
              hetsched::kernels::tier_name(hetsched::kernels::engine_tier()),
              cfg.nproc, sysconf(_SC_LEVEL3_CACHE_SIZE));
  std::printf(", \"details\": {");
  const char* sep = "";
  for (const auto& [k, v] : r.details) {
    std::printf("%s\"%s\": %s", sep, k.c_str(), v.c_str());
    sep = ", ";
  }
  std::printf("}");
  if (cfg.trace)
    std::printf(", \"self_time\": {\"wall_s\": %.9f, \"sum_s\": %.9f, "
                "\"spans\": %zu}",
                tr.root_seconds(), self_sum, tr.span_count());
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  print_metrics(cfg.trace ? r.per_layer : r.end_to_end);
  std::printf("}}\n");
  return r.failed == 0 ? 0 : 1;
}
