// krsp::obs unit + property tests: histogram edge cases (empty, single
// sample, zero, beyond-top-bucket clamp, quantile monotonicity),
// concurrent recording (exercised under TSan by the CI leg), tracer
// capture/sampling/cap semantics, Prometheus exposition shape, Chrome
// trace export shape, and the bit-identity contract: solves return the
// same result with tracing on and off.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/krsp.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace krsp::obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(ObsHistogram, EmptySnapshotIsAllZero) {
  Histogram h;
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(s.quantile(q), 0.0);
}

TEST(ObsHistogram, SingleSampleQuantilesStayInItsBucket) {
  Histogram h;
  h.record(100);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 100u);
  const int b = Histogram::bucket_index(100);
  for (const double q : {0.0, 0.5, 0.999, 1.0}) {
    const double v = s.quantile(q);
    EXPECT_GE(v, static_cast<double>(Histogram::bucket_lower(b)));
    EXPECT_LE(v, static_cast<double>(Histogram::bucket_upper(b)));
  }
}

TEST(ObsHistogram, ZeroLandsInBucketZero) {
  Histogram h;
  h.record(0);
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_LE(s.quantile(0.5), 1.0);  // inside bucket 0 = [0, 1)
}

TEST(ObsHistogram, BeyondTopBucketClampsInsteadOfDropping) {
  Histogram h;
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<std::uint64_t>::max()),
            Histogram::kBuckets - 1);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);  // record() stays total
  const double v = s.quantile(0.99);
  EXPECT_GE(v, static_cast<double>(
                   Histogram::bucket_lower(Histogram::kBuckets - 1)));
  EXPECT_LE(v, static_cast<double>(
                   Histogram::bucket_upper(Histogram::kBuckets - 1)));
}

TEST(ObsHistogram, BucketBoundsArePartitionedAndSelfConsistent) {
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_LT(Histogram::bucket_lower(i), Histogram::bucket_upper(i));
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(i)), i);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_upper(i), Histogram::bucket_lower(i + 1));
    }
  }
  // The value just below each upper bound still lands in bucket i.
  for (int i = 0; i + 1 < Histogram::kBuckets; ++i)
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i) - 1), i);
}

TEST(ObsHistogram, QuantileIsMonotoneInQ) {
  Histogram h;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i)
    h.record(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)));
  const Histogram::Snapshot s = h.snapshot();
  double prev = -1.0;
  for (int step = 0; step <= 1000; ++step) {
    const double v = s.quantile(static_cast<double>(step) / 1000.0);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << step / 1000.0;
    prev = v;
  }
}

TEST(ObsHistogram, QuantileWithinBucketResolutionOfExact) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const Histogram::Snapshot s = h.snapshot();
  // Log bucketing guarantees at most a 2x value error.
  EXPECT_GE(s.quantile(0.5), 250.0);
  EXPECT_LE(s.quantile(0.5), 1000.0);
  EXPECT_GE(s.quantile(0.99), 495.0);
}

TEST(ObsHistogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t * kPerThread + i));
    });
  }
  for (auto& th : threads) th.join();
  const Histogram::Snapshot s = h.snapshot();
  constexpr std::uint64_t kN = std::uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(s.count, kN);
  EXPECT_EQ(s.sum, kN * (kN - 1) / 2);  // sum of 0..kN-1
  std::uint64_t in_buckets = 0;
  for (const auto b : s.buckets) in_buckets += b;
  EXPECT_EQ(in_buckets, kN);
}

// ----------------------------------------------------------- counter/gauge

TEST(ObsCounter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAddReset) {
  Gauge g;
  g.set(10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// ----------------------------------------------------------------- registry

TEST(ObsRegistry, ExpositionCarriesPerClassP99) {
  Registry& reg = Registry::global();
  reg.histogram("krsp_serve_latency_ns", "class=\"interactive\"").record(1000);
  reg.histogram("krsp_serve_latency_ns", "class=\"batch\"").record(8000);
  reg.counter("krsp_serve_requests_total",
              "class=\"interactive\",outcome=\"served\"")
      .inc();
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE krsp_serve_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(
      text.find("krsp_serve_latency_ns{class=\"interactive\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find("krsp_serve_latency_ns{class=\"batch\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("krsp_serve_latency_ns_count{class=\"interactive\"}"),
            std::string::npos);
  EXPECT_NE(text.find("krsp_serve_requests_total{class=\"interactive\","
                      "outcome=\"served\"}"),
            std::string::npos);
  // Every non-comment line is `name[{labels}] value` — two tokens once
  // the label body (which may contain spaces in principle) is atomic.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(static_cast<void>(std::stod(line.substr(space + 1))))
        << line;
  }
}

TEST(ObsRegistry, SameKeyYieldsSameMetric) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("obs_test_dup", "k=\"v\"");
  Counter& b = reg.counter("obs_test_dup", "k=\"v\"");
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("obs_test_dup", "k=\"w\"");
  EXPECT_NE(&a, &c);
}

// krsp_solve_wall_ns is resolved per mode by indexing a table with the
// mode enumerator's value, so each solve must land under its own label.
TEST(ObsRegistry, SolveWallTimeIsRecordedUnderItsModeLabel) {
  api::SolveRequest req;
  req.instance.graph.resize(3);
  req.instance.graph.add_edge(0, 1, 1, 1);
  req.instance.graph.add_edge(1, 2, 1, 1);
  req.instance.graph.add_edge(0, 2, 5, 1);
  req.instance.s = 0;
  req.instance.t = 2;
  req.instance.k = 1;
  req.instance.delay_bound = 1;
  const std::pair<api::Mode, const char*> labels[] = {
      {api::Mode::kScaled, "mode=\"scaled\""},
      {api::Mode::kExactWeights, "mode=\"exact\""},
      {api::Mode::kPhase1Only, "mode=\"phase1\""},
  };
  const auto count = [](const char* label) {
    return Registry::global()
        .histogram("krsp_solve_wall_ns", label)
        .snapshot()
        .count;
  };
  for (const auto& [mode, label] : labels) {
    std::vector<std::uint64_t> before;
    for (const auto& entry : labels) before.push_back(count(entry.second));
    req.mode = mode;
    ASSERT_TRUE(api::Solver::solve(req).has_paths()) << label;
    for (std::size_t i = 0; i < before.size(); ++i)
      EXPECT_EQ(count(labels[i].second),
                before[i] + (labels[i].second == label ? 1 : 0))
          << "solved " << label << ", read " << labels[i].second;
  }
}

// ------------------------------------------------------------------- tracer

// The global tracer carries state across tests; each tracer test starts
// from a clean, disabled, default-knob state and restores it on exit.
class ObsTracerTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_tracer(); }
  void TearDown() override { reset_tracer(); }
  static void reset_tracer() {
    Tracer& t = Tracer::global();
    t.disable();
    t.set_sample_every(1);
    t.set_max_spans_per_thread(std::size_t{1} << 20);
    t.clear();
  }
};

TEST_F(ObsTracerTest, DisabledRecordsNothing) {
  { KRSP_OBS_SPAN("obs_test_disabled"); }
  Tracer::global().record("obs_test_disabled_manual", 0, 10);
  EXPECT_TRUE(Tracer::global().snapshot().empty());
}

TEST_F(ObsTracerTest, CapturesNamedSpansWithSaneTimestamps) {
  Tracer::global().enable();
  {
    // Direct Span objects (not the macros).
    const Span outer("obs_test_outer");
    const Span inner("obs_test_inner");
  }
  Tracer::global().disable();
  const auto spans = Tracer::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  bool saw_outer = false;
  bool saw_inner = false;
  for (const auto& s : spans) {
    EXPECT_GE(s.start_ns, 0);
    EXPECT_GE(s.dur_ns, 0);
    if (std::string(s.name) == "obs_test_outer") saw_outer = true;
    if (std::string(s.name) == "obs_test_inner") saw_inner = true;
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST_F(ObsTracerTest, SamplingKeepsOneInEveryN) {
  Tracer& t = Tracer::global();
  t.set_sample_every(4);
  t.enable();
  for (int i = 0; i < 100; ++i) {
    const Span span("obs_test_sampled");
  }
  t.disable();
  EXPECT_EQ(t.snapshot().size(), 25u);
}

TEST_F(ObsTracerTest, PerThreadCapDropsAndCounts) {
  Tracer& t = Tracer::global();
  t.set_max_spans_per_thread(10);
  t.enable();
  for (int i = 0; i < 25; ++i) {
    const Span span("obs_test_capped");
  }
  t.disable();
  EXPECT_EQ(t.snapshot().size(), 10u);
  EXPECT_EQ(t.dropped(), 15u);
  t.clear();
  EXPECT_EQ(t.dropped(), 0u);
}

TEST_F(ObsTracerTest, ConcurrentRecordingKeepsPerThreadIds) {
  Tracer& t = Tracer::global();
  t.enable();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) {
        const Span span("obs_test_mt");
      }
    });
  for (auto& th : threads) th.join();
  t.disable();
  const auto spans = t.snapshot();
  EXPECT_EQ(spans.size() + t.dropped(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST_F(ObsTracerTest, ChromeTraceExportShape) {
  Tracer& t = Tracer::global();
  t.enable();
  { const Span span("obs_test_export"); }
  t.disable();
  std::ostringstream out;
  write_chrome_trace(out, t.snapshot());
  const std::string json = out.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"obs_test_export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

// -------------------------------------------------------------- bit identity

TEST_F(ObsTracerTest, SolveResultsBitIdenticalOnVsOff) {
  util::Rng rng(91);
  for (int trial = 0; trial < 4; ++trial) {
    api::RandomInstanceOptions io;
    io.k = 2 + trial % 2;
    io.delay_slack = 0.25;
    auto inst = api::random_er_instance(rng, 12, 0.35, io);
    if (!inst) continue;
    api::SolveRequest req;
    req.instance = std::move(*inst);
    req.mode = trial % 2 == 0 ? api::Mode::kExactWeights : api::Mode::kScaled;

    Tracer::global().disable();
    const api::SolveResult off = api::Solver::solve(req);
    Tracer::global().clear();
    Tracer::global().enable();
    const api::SolveResult on = api::Solver::solve(req);
    Tracer::global().disable();

    EXPECT_EQ(off.status, on.status);
    EXPECT_EQ(off.cost, on.cost);
    EXPECT_EQ(off.delay, on.delay);
    EXPECT_EQ(off.paths.paths(), on.paths.paths());
    EXPECT_EQ(off.telemetry.cost_guess_used, on.telemetry.cost_guess_used);
    if (off.status == api::SolveStatus::kOptimal ||
        off.status == api::SolveStatus::kApprox) {
      EXPECT_FALSE(Tracer::global().snapshot().empty());
    }
    Tracer::global().clear();
  }
}

}  // namespace
}  // namespace krsp::obs
