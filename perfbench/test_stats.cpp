// Unit tests of the benchmark's own statistics: the percentile rule, the
// seeded Poisson schedule, the rate ladder with its backlog rule, and span
// self time.  Build and run: python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "stats.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

// --- percentile rule --------------------------------------------------------

TEST(PercentileRule, TenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(20, 50.0));
  EXPECT_FALSE(percentile_supported(19, 50.0));
  EXPECT_FALSE(percentile_supported(0, 50.0));
}

TEST(PercentileRule, HighestSupportedPercentile) {
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile_sorted(v, 50.0), 50.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 99.0);
  EXPECT_EQ(percentile_sorted(v, 100.0), 100.0);
  EXPECT_EQ(percentile_sorted({}, 50.0), 0.0);
}

TEST(PercentileRule, SummaryReportsCountAndCountsMissesAsInfinite) {
  std::vector<double> v(2000, 1.0);
  Summary s = summarize(v);
  EXPECT_EQ(s.samples, 2000u);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_EQ(s.tail_pct, 99.0);
  // 2% misses (failed or refused requests) push p99 past any limit.
  for (int i = 0; i < 40; ++i) v[static_cast<std::size_t>(i)] = std::numeric_limits<double>::infinity();
  s = summarize(v);
  EXPECT_TRUE(std::isinf(s.p99));
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_FALSE(summarize(std::vector<double>(999, 1.0)).p99_supported);
}

TEST(PercentileRule, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(PercentileRule, WindowedP99IsTheGeometricMeanOfWindowP99s) {
  // Ten windows whose p99 is 1 ms; the 500-request remainder joins the
  // last window.
  std::vector<double> by_send(10 * kWindow + 500, 1.0);
  EXPECT_EQ(window_p99s(by_send).size(), 10u);
  EXPECT_DOUBLE_EQ(windowed_p99(by_send), 1.0);
  // Two windows in ten get a 20-request stall at 32 ms: a median over
  // windows would not move; the geometric mean rises to 32^(2/10) = 2 ms.
  for (const std::size_t w : {3u, 7u}) {
    for (std::size_t i = 0; i < 20; ++i) by_send[w * kWindow + 100 + i] = 32.0;
  }
  EXPECT_EQ(median(window_p99s(by_send)), 1.0);
  EXPECT_DOUBLE_EQ(windowed_p99(by_send), 2.0);
  EXPECT_EQ(windowed_p99(std::vector<double>(kWindow - 1, 1.0)), 0.0);
}

// --- Poisson schedule ---------------------------------------------------------

TEST(PoissonSchedule, DeterministicPerSeed) {
  const auto a = poisson_schedule(42, 1000.0, 2.0);
  const auto b = poisson_schedule(42, 1000.0, 2.0);
  const auto c = poisson_schedule(43, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, RateWindowAndOrder) {
  const auto s = poisson_schedule(7, 5000.0, 4.0);
  // 20000 expected arrivals; a Poisson count's sd is ~141.
  EXPECT_NEAR(static_cast<double>(s.size()), 20000.0, 1000.0);
  ASSERT_FALSE(s.empty());
  EXPECT_GE(s.front(), 0.0);
  EXPECT_LT(s.back(), 4.0);
  for (std::size_t i = 1; i < s.size(); ++i) ASSERT_GT(s[i], s[i - 1]);
  // Exponential gaps: the coefficient of variation is ~1.
  double sum = 0.0;
  double sq = 0.0;
  for (std::size_t i = 1; i < s.size(); ++i) {
    const double g = s[i] - s[i - 1];
    sum += g;
    sq += g * g;
  }
  const double n = static_cast<double>(s.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  EXPECT_NEAR(mean, 1.0 / 5000.0, 0.05 / 5000.0);
  EXPECT_NEAR(cv, 1.0, 0.05);
}

TEST(PoissonSchedule, EmptyForNoRateOrWindow) {
  EXPECT_TRUE(poisson_schedule(1, 0.0, 1.0).empty());
  EXPECT_TRUE(poisson_schedule(1, 100.0, 0.0).empty());
}

// --- rate ladder and backlog rule ----------------------------------------------

Rung rung(double rate, double p99_ms, std::size_t backlog = 0) {
  Rung r;
  r.rate = rate;
  r.window_s = 1.0;
  r.sent = static_cast<std::size_t>(rate);
  r.succeeded = r.sent;
  r.backlog_at_end = backlog;
  r.p99_ms = p99_ms;
  r.p99_supported = r.sent >= 1000;
  return r;
}

TEST(Ladder, BacklogRule) {
  // Limit: max(64, 2% of sent).
  EXPECT_FALSE(backlog_growing(rung(1000, 1.0, 64)));
  EXPECT_TRUE(backlog_growing(rung(1000, 1.0, 65)));
  EXPECT_FALSE(backlog_growing(rung(10000, 1.0, 200)));
  EXPECT_TRUE(backlog_growing(rung(10000, 1.0, 201)));
}

TEST(Ladder, RungMeetsSlo) {
  EXPECT_TRUE(rung_meets_slo(rung(2000, 5.0), 5.0));
  EXPECT_FALSE(rung_meets_slo(rung(2000, 5.1), 5.0));
  EXPECT_FALSE(rung_meets_slo(rung(2000, 1.0, 1000), 5.0));  // growing backlog
  EXPECT_FALSE(rung_meets_slo(rung(500, 1.0), 5.0));         // p99 unsupported
}

TEST(Ladder, GeometricLadder) {
  const auto l = geometric_ladder(100.0, 2.0, 4);
  ASSERT_EQ(l.size(), 4u);
  EXPECT_DOUBLE_EQ(l[0], 100.0);
  EXPECT_DOUBLE_EQ(l[3], 800.0);
}

TEST(Ladder, SearchFindsTheHighestPassingRung) {
  for (std::size_t rungs : {1u, 2u, 7u, 80u}) {
    for (std::ptrdiff_t last_pass = -1; last_pass < static_cast<std::ptrdiff_t>(rungs); ++last_pass) {
      std::size_t probes = 0;
      const std::ptrdiff_t got = search_ladder(rungs, [&](std::size_t i) {
        ++probes;
        return static_cast<std::ptrdiff_t>(i) <= last_pass;
      });
      EXPECT_EQ(got, last_pass) << rungs << " rungs";
      EXPECT_LE(probes, static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(rungs) + 1.0))));
    }
  }
}

TEST(Ladder, MaxRpsIsTheHighestPassingRungsThroughput) {
  std::vector<Rung> measured{rung(4000, 2.0), rung(16000, 50.0), rung(8000, 3.0),
                             rung(12000, 4.0, 5000)};
  measured[2].succeeded = 7990;  // achieved, not offered
  EXPECT_DOUBLE_EQ(max_rps_at_slo(measured, 10.0), 7990.0);
  EXPECT_DOUBLE_EQ(max_rps_at_slo({rung(4000, 20.0)}, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(max_rps_at_slo({}, 10.0), 0.0);
}

// --- span self time -------------------------------------------------------------

Span span(const char* name, std::int64_t start, std::int64_t end, std::int64_t parent) {
  return Span{name, start, end, parent, kNoRequest};
}

TEST(SelfTime, NestedSpans) {
  // root [0,100] with children a [10,40] and b [30,60] (overlapping: the
  // union covers 50); a has a child c [15,20]; d [90,130] overruns root
  // and is clipped to [90,100].
  const std::vector<Span> spans{span("root", 0, 100, kNoParent), span("a", 10, 40, 0),
                                span("b", 30, 60, 0),            span("c", 15, 20, 1),
                                span("d", 90, 130, 0)};
  const auto self = self_times(spans);
  EXPECT_EQ(self.at("root"), 100 - 50 - 10);
  EXPECT_EQ(self.at("a"), 30 - 5);
  EXPECT_EQ(self.at("b"), 30);
  EXPECT_EQ(self.at("c"), 5);
  EXPECT_EQ(self.at("d"), 40);
}

TEST(SelfTime, AsyncSpansStayOffTheTimeline) {
  std::vector<Span> spans{span("phase", 0, 100, kNoParent), span("submit", 10, 20, 0),
                          Span{"wait", 20, 90, 0, 1, true}, Span{"wait", 25, 95, 0, 2, true}};
  const auto self = self_times(spans);
  EXPECT_EQ(self.at("phase"), 90);
  EXPECT_EQ(self.count("wait"), 0u);
}

TEST(SelfTime, SameNameSpansAccumulate) {
  const std::vector<Span> spans{span("x", 0, 10, kNoParent), span("x", 20, 25, kNoParent)};
  EXPECT_EQ(self_times(spans).at("x"), 15);
}

TEST(Tracer, ScopesRecordParents) {
  Tracer t;
  {
    const Tracer::Scope outer(&t, "serve.phase");
    {
      const Tracer::Scope inner(&t, "serve.submit", 7);
    }
    t.record("serve.wait", t.now_ns(), t.now_ns() + 10, t.current(), 7);
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, kNoParent);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].request, 7);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_LE(t.spans()[0].start_ns, t.spans()[1].start_ns);
  EXPECT_LE(t.spans()[1].end_ns, t.spans()[0].end_ns);
  const Tracer::Scope off(nullptr, "ignored");  // untraced runs pass no tracer
}

TEST(Tracer, ChromeTraceEvents) {
  const std::vector<Span> spans{span("tables.table1", 0, 2000, kNoParent),
                                Span{"serve.wait", 100, 900, 0, 3, true}};
  const std::string json = chrome_trace_json(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":0.000,\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\",\"id\":3,\"ts\":0.100"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\",\"id\":3,\"ts\":0.900"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"tables\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
