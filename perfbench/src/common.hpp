// Shared pieces of the perfbench harness: a steady clock, seeded input
// streams, sample statistics, the metric record every workload fills, and
// the span recorder of the traced run.
//
// The harness measures the library only from outside: it times calls into
// the public API (hetsched.hpp) and reads the reports those calls return.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hetsched.hpp"

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double now_s();

/// splitmix64: the one generator the harness derives every input from, so
/// a workload seed fixes matrix seeds, job seeds and arrival times.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  unsigned next_u32() { return static_cast<unsigned>(next() >> 32); }

 private:
  std::uint64_t x_;
};

/// Linear-interpolated percentile (q in [0, 100]) of unsorted samples.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// The highest percentile of a fixed ladder that still has at least ten
/// samples beyond it, with the sample count it rests on.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& v);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `end_to_end` and `per_layer` hold
/// the metrics named in BENCHMARK.json; `details` holds further JSON
/// fields (tail percentiles, sample counts, configuration) for the report.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> details;  // key -> JSON number text

  void e2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = {v, unit};
  }
  void detail(const std::string& key, double v);
  /// Counts one checked operation; `ok` false counts it as failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// In-memory span recorder of the traced run. Spans nest on the harness
/// thread; each has an id, its parent's id, a "<layer>.<call>" name, a
/// start and an end. Nothing is written until write_chrome(). When
/// disabled every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled). `name` is kept by pointer: pass a string literal. Spans
  /// close in reverse order of opening, which Scope guarantees.
  int begin(const char* name);
  void end(int id);
  /// Adds the per-task compute records of a run that ran inside span
  /// `span_id` (times in the trace are relative to that span's start).
  void add_tasks(int span_id, const hetsched::runtime::Trace& t);

  /// Self seconds per layer: each span's duration minus the time its
  /// children cover, summed by the name's prefix before the first '.'.
  std::map<std::string, double> self_seconds() const;
  /// Duration of the root span (the whole run).
  double root_seconds() const;
  std::size_t span_count() const { return spans_.size(); }
  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    int id;
    int parent;
    const char* name;
    double start;
    double end;
  };
  struct Task {
    int worker;
    hetsched::Kernel kernel;
    double start;
    double end;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Task> tasks_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Command-line knobs every workload receives.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
};

/// Kernel rates at tile size `nb` (single thread, measure_kernel_seconds)
/// as kernels.<k>_gflops per-layer metrics.
void kernel_rates(Result& r, Tracer& tr, int nb);

Result run_factor_large(const Config& cfg, Tracer& tr);
Result run_serve_small(const Config& cfg, Tracer& tr);
Result run_plan_paper(const Config& cfg, Tracer& tr);

}  // namespace perfbench
