// The benchmark's statistics rules, kept free of any library dependency so
// test_stats.cpp can pin them: the percentile rule, the seeded Poisson
// arrival schedule, and the rate-ladder rule behind max_rps_at_slo.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/rng.hpp"

namespace perfbench {

/// The seed-to-input source of every generated workload (SplitMix64).
using rvvsvm::check::Rng;

/// Uniform in [0, 1) with 53 random bits.
[[nodiscard]] inline double unit(Rng& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// Samples that lie strictly beyond the nearest-rank p-th percentile of n
/// samples (p in (0, 100)).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

/// The percentile rule: a percentile is reported only when at least ten
/// samples lie beyond it.
inline constexpr std::size_t kMinBeyond = 10;

[[nodiscard]] inline bool percentile_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinBeyond;
}

/// Nearest-rank percentile of an ascending-sorted sample.
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The highest of the standard tail percentiles that the sample supports
/// (0 when not even the median has ten samples beyond it).
[[nodiscard]] inline double highest_supported_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (percentile_supported(n, p)) return p;
  }
  return 0.0;
}

/// Latency summary of one phase.  Failed and refused requests enter the
/// sample as +infinity: they miss every latency limit.
struct Summary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
  double tail_pct = 0.0;  ///< highest supported percentile
  double tail = 0.0;      ///< its value
};

[[nodiscard]] inline Summary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.samples = values.size();
  s.p50 = percentile_sorted(values, 50.0);
  s.p99 = percentile_sorted(values, 99.0);
  s.p99_supported = percentile_supported(values.size(), 99.0);
  s.tail_pct = highest_supported_percentile(values.size());
  s.tail = s.tail_pct > 0.0 ? percentile_sorted(values, s.tail_pct) : 0.0;
  return s;
}

/// Requests per window of the windowed p99: the fewest that leave ten
/// samples beyond p99.
inline constexpr std::size_t kWindow = 1000;

/// The p99 of each consecutive kWindow-request window (in send order; a
/// short last window joins the one before it), one value per window.  Empty
/// when the sample is shorter than one window.
[[nodiscard]] inline std::vector<double> window_p99s(const std::vector<double>& by_send) {
  std::vector<double> out;
  const std::size_t windows = by_send.size() / kWindow;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = by_send.begin() + static_cast<std::ptrdiff_t>(w * kWindow);
    const auto last = w + 1 == windows ? by_send.end() : first + static_cast<std::ptrdiff_t>(kWindow);
    std::vector<double> window(first, last);
    std::sort(window.begin(), window.end());
    out.push_back(percentile_sorted(window, 99.0));
  }
  return out;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// A ladder rung's p99: the geometric mean over windows of each window's p99.
/// Host preemption stalls a vCPU for 1-20 ms a few times a second and
/// delays every request in flight behind it, so the pooled p99 of a run
/// mostly counts stall episodes, and a window's p99 is set by the largest
/// stall that falls in it.  Every window counts, so the figure still rises
/// when only a few windows get worse (a periodic pause, a shed episode),
/// unlike a median over windows; in log scale, so the one window in fifty
/// that a 20 ms stall hits does not outweigh the rest, unlike an arithmetic
/// mean.  0 when no window is complete.
[[nodiscard]] inline double windowed_p99(const std::vector<double>& by_send) {
  const std::vector<double> windows = window_p99s(by_send);
  if (windows.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double w : windows) log_sum += std::log(w);
  return std::exp(log_sum / static_cast<double>(windows.size()));
}

/// Seeded open-loop arrivals: send offsets in seconds from the phase start,
/// exponential gaps at `rate` per second, every offset < `duration`.  A pure
/// function of (seed, rate, duration).
[[nodiscard]] inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                                          double duration) {
  std::vector<double> offsets;
  if (rate <= 0.0 || duration <= 0.0) return offsets;
  offsets.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 16);
  Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log1p(-unit(rng)) / rate;
    if (t >= duration) break;
    offsets.push_back(t);
  }
  return offsets;
}

/// One rung of a rate ladder, as measured.
struct Rung {
  double rate = 0.0;      ///< offered rate (per second)
  double window_s = 0.0;  ///< length of the send window
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  /// Requests still outstanding at the end of the send window.
  std::size_t backlog_at_end = 0;
  double p99_ms = 0.0;  ///< failures and refusals count as misses
  bool p99_supported = false;
};

/// The backlog rule: a rung holds its rate when the requests still
/// outstanding as its send window closes are within a small share of what
/// it sent — a stable queue holds about rate × latency requests, a growing
/// one holds (offered − served) × window.
inline constexpr std::size_t kBacklogFloor = 64;
inline constexpr double kBacklogShare = 0.02;

[[nodiscard]] inline std::size_t backlog_limit(std::size_t sent) {
  return std::max(kBacklogFloor, static_cast<std::size_t>(kBacklogShare * static_cast<double>(sent)));
}

[[nodiscard]] inline bool backlog_growing(const Rung& r) {
  return r.backlog_at_end > backlog_limit(r.sent);
}

/// A rung stops sending once this many requests are outstanding: it has
/// missed already, and a deeper queue would only cost memory and time.
[[nodiscard]] inline std::size_t backlog_abort_limit(std::size_t planned) {
  return 4 * backlog_limit(planned);
}

[[nodiscard]] inline bool rung_meets_slo(const Rung& r, double slo_ms) {
  return r.p99_supported && r.p99_ms <= slo_ms && !backlog_growing(r);
}

/// A fixed geometric rate ladder: base × ratio^k for k in [0, rungs).
[[nodiscard]] inline std::vector<double> geometric_ladder(double base, double ratio,
                                                          std::size_t rungs) {
  std::vector<double> ladder;
  ladder.reserve(rungs);
  for (std::size_t k = 0; k < rungs; ++k) ladder.push_back(base * std::pow(ratio, static_cast<double>(k)));
  return ladder;
}

/// Finds the highest rung of an ascending ladder that meets the SLO by
/// bisection, on the premise that a rate passes whenever a higher one does.
/// `probe(i)` measures rung i and returns whether it passed.  Returns the
/// rung index, or -1 when none passed; probes at most ceil(log2(rungs + 1))
/// rungs, so a fine ladder costs few runs and low rungs are rarely visited.
template <class Probe>
[[nodiscard]] std::ptrdiff_t search_ladder(std::size_t rungs, Probe&& probe) {
  std::ptrdiff_t lo = -1;  // highest rung known to pass
  auto hi = static_cast<std::ptrdiff_t>(rungs);  // lowest rung known to miss
  while (hi - lo > 1) {
    const std::ptrdiff_t mid = lo + (hi - lo) / 2;
    if (probe(static_cast<std::size_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// max_rps_at_slo from the measured rungs: the throughput the highest-rate
/// passing rung achieved (succeeded requests per second of its send
/// window), or 0 when none passed.
[[nodiscard]] inline double max_rps_at_slo(const std::vector<Rung>& measured, double slo_ms) {
  const Rung* best = nullptr;
  for (const Rung& r : measured) {
    if (rung_meets_slo(r, slo_ms) && (best == nullptr || r.rate > best->rate)) best = &r;
  }
  if (best == nullptr || best->window_s <= 0.0) return 0.0;
  return static_cast<double>(best->succeeded) / best->window_s;
}

}  // namespace perfbench
