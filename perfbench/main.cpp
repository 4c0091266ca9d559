// perfbench — the repo benchmark: one seeded workload per run, every output
// checked, one JSON result line at the end of stdout.
//
//   perfbench --workload serve_small|serve_large|paper_tables --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--root DIR]
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
// untraced (serve_*: with the rate ladder) and then traced on the same seed,
// prints the per-layer metrics, per-layer self time and the tracing overhead
// (traced minus untraced end-to-end values), and writes the spans as a
// Chrome trace to --trace-out.  A workload prints only the per-layer
// metrics it exercises; run.py fills in the rest of BENCHMARK.json's list.
// Exit status: 0 when every output was correct, 1 when any was wrong (the
// result line says which counts), 2 on a usage or set-up error (no result).
// See README.md for the workloads and metrics.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_small|serve_large|paper_tables --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--root DIR]\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (arg == "--root" && has_value) {
      opt.root = argv[++i];
    } else {
      return false;
    }
  }
  const bool known = opt.workload == "serve_small" || opt.workload == "serve_large" ||
                     opt.workload == "paper_tables";
  return known && opt.seconds > 0.0;
}

void run(const Options& opt, Outcome& out, Tracer* tracer) {
  if (opt.workload == "paper_tables") {
    run_tables(opt, out, tracer);
  } else {
    run_serve(opt, out, tracer);
  }
}

[[nodiscard]] bool is_layer_metric(const Metric& m) {
  return m.name.find('.') != std::string::npos;
}

/// The traced run's result: per-layer metrics, self time per layer, and the
/// tracing overhead on every end-to-end metric.  The untraced run also
/// searches the rate ladder, and its client.* metrics (the load
/// generator's view) take precedence over the traced run's.
Outcome traced_result(const Options& opt) {
  Outcome plain;
  std::printf("== untraced run ==\n");
  Options with_ladder = opt;
  with_ladder.ladder = true;
  run(with_ladder, plain, nullptr);
  std::printf("== traced run ==\n");
  Tracer tracer;
  Outcome traced;
  run(opt, traced, &tracer);

  Outcome result;
  result.attempted = plain.attempted + traced.attempted;
  result.failed = plain.failed + traced.failed;
  result.correct = plain.correct && traced.correct;
  for (const Metric& m : plain.metrics) {
    if (is_layer_metric(m)) result.metrics.push_back(m);
  }
  for (const Metric& m : traced.metrics) {
    if (is_layer_metric(m) && result.find(m.name) == nullptr) result.metrics.push_back(m);
  }
  std::map<std::string, double> layer_self_s;
  for (const auto& [name, ns] : self_times(tracer.spans())) {
    layer_self_s[name.substr(0, name.find('.'))] += static_cast<double>(ns) / 1e9;
  }
  for (const auto& [layer, s] : layer_self_s) result.add(layer + ".self_s", s, "s");
  for (const Metric& m : plain.metrics) {
    if (is_layer_metric(m)) continue;
    const Metric* t = traced.find(m.name);
    if (t != nullptr) result.add("trace.overhead_" + m.name, t->value - m.value, m.unit);
  }
  if (!opt.trace_out.empty()) {
    if (write_chrome_trace(tracer.spans(), opt.trace_out)) {
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(), opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    }
  }
  return result;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ", m.name.c_str(),
                v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  try {
    Outcome result;
    if (opt.trace) {
      result = traced_result(opt);
    } else {
      run(opt, result, nullptr);
      std::erase_if(result.metrics, is_layer_metric);
      result.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
    std::fflush(stdout);
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
