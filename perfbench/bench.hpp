// Shared types of the perfbench driver: options, the metric sink, and the
// outcome every workload run reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "tracing.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs)
  std::string root = "."; ///< repo checkout (tests/golden lives under it)
  bool ladder = false;     ///< serve_*: also search the rate ladder (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operation accounting plus named metrics.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed operation; `why` goes to stderr.
  void fail(const std::string& why) {
    ++failed;
    correct = false;
    std::cerr << "perfbench: FAILED: " << why << '\n';
  }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The workloads.  `tracer` is null on untraced runs.
void run_serve(const Options& opt, Outcome& out, Tracer* tracer);
void run_tables(const Options& opt, Outcome& out, Tracer* tracer);

/// Layer measurements of the traced run that call layer APIs directly
/// rather than through a workload (layers.cpp).
struct RequestPool;
void measure_par_epoch(Outcome& out, Tracer& tracer);
/// Returns the instructions the collectives' pools rolled back.
[[nodiscard]] std::uint64_t measure_collectives(const RequestPool& pool, Outcome& out,
                                                Tracer& tracer);
void measure_svm(const RequestPool& pool, unsigned vlen, Outcome& out, Tracer& tracer);
void measure_rvv(Outcome& out, Tracer& tracer);
void measure_tuner_hit(Outcome& out, Tracer& tracer);
/// tables.*: every table computed once and compared with its golden.
void measure_tables(const Options& opt, Outcome& out, Tracer& tracer);

}  // namespace perfbench
