#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SeedStream::next() {
  x_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeedStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1p-53;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

Tail tail_of(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 80.0, 75.0};
  Tail t;
  t.samples = v.size();
  const auto n = static_cast<double>(v.size());
  for (double q : kLadder) {
    if (n * (100.0 - q) / 100.0 >= 10.0) {
      t.pct = q;
      break;
    }
  }
  t.value = percentile(v, t.pct);
  return t;
}

void Result::detail(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  details[key] = buf;
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(1 << 16);
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, open_.empty() ? -1 : open_.back(), name, now_s(), 0.0});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (!enabled_) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  open_.pop_back();
}

void Tracer::add_tasks(int span_id, const hetsched::runtime::Trace& t) {
  if (!enabled_ || span_id < 0) return;
  const double base = spans_[static_cast<std::size_t>(span_id)].start;
  for (const auto& c : t.compute())
    tasks_.push_back({c.worker, c.kernel, base + c.start, base + c.end});
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const std::string name = s.name;
    out[name.substr(0, name.find('.'))] +=
        (s.end - s.start) - child[static_cast<std::size_t>(s.id)];
  }
  return out;
}

double Tracer::root_seconds() const {
  return spans_.empty() ? 0.0 : spans_.front().end - spans_.front().start;
}

void Tracer::write_chrome(const std::string& path) const {
  if (!enabled_) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("perfbench: cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  const auto us = [t0](double t) { return (t - t0) * 1e6; };
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
               "\"tid\": 0, \"args\": {\"name\": \"harness\"}}");
  for (const Span& s : spans_)
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \"%s\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                 "\"parent\": %d}}",
                 s.name, us(s.start), (s.end - s.start) * 1e6, s.id, s.parent);
  for (const Task& k : tasks_)
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"pid\": 2, \"tid\": %d, \"name\": \"%.*s\", "
                 "\"ts\": %.3f, \"dur\": %.3f}",
                 k.worker, static_cast<int>(hetsched::to_string(k.kernel).size()),
                 hetsched::to_string(k.kernel).data(), us(k.start),
                 (k.end - k.start) * 1e6);
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("perfbench: cannot write " + path);
}

void kernel_rates(Result& r, Tracer& tr, int nb) {
  using hetsched::Kernel;
  static constexpr struct {
    Kernel k;
    const char* name;
  } kKernels[] = {{Kernel::GEMM, "kernels.gemm_gflops"},
                  {Kernel::SYRK, "kernels.syrk_gflops"},
                  {Kernel::TRSM, "kernels.trsm_gflops"},
                  {Kernel::POTRF, "kernels.potrf_gflops"}};
  Scope s(tr, "kernels.measure_kernel_seconds");
  for (const auto& kk : kKernels) {
    const double sec = hetsched::measure_kernel_seconds(kk.k, nb, 5);
    r.layer(kk.name, hetsched::kernel_flops(kk.k, nb) / sec / 1e9, "GFLOP/s");
  }
  r.detail("kernel_nb", nb);
}

}  // namespace perfbench
