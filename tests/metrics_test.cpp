#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace amdrel {
namespace {

// The registry is process-global, so every test starts from a clean slate
// explicitly (counters registered by other tests keep existing, but their
// values reset to zero).
class Metrics : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset_metrics(); }
};

TEST_F(Metrics, CounterAccumulatesAndSnapshots) {
  static obs::Counter& c = obs::counter("test.counter.basic");
  c.add();
  c.add(41);
  const auto snap = obs::snapshot_metrics();
  EXPECT_EQ(snap.counter("test.counter.basic"), 42u);
  EXPECT_EQ(snap.counter("test.counter.never-bumped-nor-registered"), 0u);
}

TEST_F(Metrics, CounterLookupReturnsTheSameSlot) {
  obs::Counter& a = obs::counter("test.counter.same");
  obs::Counter& b = obs::counter("test.counter.same");
  EXPECT_EQ(&a, &b);
  a.add(1);
  b.add(2);
  EXPECT_EQ(obs::snapshot_metrics().counter("test.counter.same"), 3u);
}

TEST_F(Metrics, RegisteredButNeverBumpedCounterReportsZero) {
  obs::counter("test.counter.idle");
  const auto snap = obs::snapshot_metrics();
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "test.counter.idle") {
      found = true;
      EXPECT_EQ(c.value, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(Metrics, GaugeIsLastWriteWins) {
  static obs::Gauge& g = obs::gauge("test.gauge.w");
  g.set(12.0);
  g.set(15.5);
  const auto snap = obs::snapshot_metrics();
  bool found = false;
  for (const auto& gv : snap.gauges) {
    if (gv.name == "test.gauge.w") {
      found = true;
      EXPECT_DOUBLE_EQ(gv.value, 15.5);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(Metrics, HistogramTracksCountSumMinMaxAndQuantiles) {
  static obs::Histogram& h = obs::histogram("test.hist.basic");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const auto snap = obs::snapshot_metrics();
  const obs::MetricsSnapshot::HistogramValue* hv = nullptr;
  for (const auto& x : snap.histograms) {
    if (x.name == "test.hist.basic") hv = &x;
  }
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 100u);
  EXPECT_DOUBLE_EQ(hv->sum, 5050.0);
  EXPECT_DOUBLE_EQ(hv->min, 1.0);
  EXPECT_DOUBLE_EQ(hv->max, 100.0);
  // Quantiles interpolate within power-of-two buckets: loose bounds only.
  EXPECT_GE(hv->p50, 1.0);
  EXPECT_LE(hv->p50, 100.0);
  EXPECT_GE(hv->p95, hv->p50);
  EXPECT_LE(hv->p95, 100.0);
}

TEST_F(Metrics, HistogramSingleValueHasTightQuantiles) {
  static obs::Histogram& h = obs::histogram("test.hist.single");
  h.observe(3.25);
  const auto snap = obs::snapshot_metrics();
  for (const auto& x : snap.histograms) {
    if (x.name != "test.hist.single") continue;
    EXPECT_EQ(x.count, 1u);
    // min/max clamp the interpolation, so a 1-sample histogram is exact.
    EXPECT_DOUBLE_EQ(x.p50, 3.25);
    EXPECT_DOUBLE_EQ(x.p95, 3.25);
  }
}

TEST_F(Metrics, HistogramEmptyReportsZeros) {
  obs::histogram("test.hist.empty");  // registered, never observed
  const auto snap = obs::snapshot_metrics();
  bool found = false;
  for (const auto& x : snap.histograms) {
    if (x.name != "test.hist.empty") continue;
    found = true;
    EXPECT_EQ(x.count, 0u);
    EXPECT_DOUBLE_EQ(x.sum, 0.0);
    EXPECT_DOUBLE_EQ(x.min, 0.0);
    EXPECT_DOUBLE_EQ(x.max, 0.0);
    EXPECT_DOUBLE_EQ(x.p50, 0.0);
    EXPECT_DOUBLE_EQ(x.p95, 0.0);
  }
  EXPECT_TRUE(found);
}

TEST_F(Metrics, HistogramQuantilesClampToMinMaxAtBucketBoundaries) {
  // All samples in one power-of-two bucket [2,4): interpolation inside
  // the bucket must never report a quantile outside the observed range.
  static obs::Histogram& h = obs::histogram("test.hist.clamp");
  h.observe(2.0);  // exactly a bucket boundary
  h.observe(3.9);
  h.observe(3.9);
  const auto snap = obs::snapshot_metrics();
  for (const auto& x : snap.histograms) {
    if (x.name != "test.hist.clamp") continue;
    EXPECT_EQ(x.count, 3u);
    EXPECT_GE(x.p50, x.min);
    EXPECT_LE(x.p50, x.max);
    EXPECT_GE(x.p95, x.p50);
    EXPECT_LE(x.p95, x.max);
    EXPECT_DOUBLE_EQ(x.min, 2.0);
    EXPECT_DOUBLE_EQ(x.max, 3.9);
  }
}

TEST_F(Metrics, ResetZeroesEverything) {
  static obs::Counter& c = obs::counter("test.counter.reset");
  static obs::Gauge& g = obs::gauge("test.gauge.reset");
  static obs::Histogram& h = obs::histogram("test.hist.reset");
  c.add(7);
  g.set(1.0);
  h.observe(2.0);
  obs::reset_metrics();
  const auto snap = obs::snapshot_metrics();
  EXPECT_EQ(snap.counter("test.counter.reset"), 0u);
  for (const auto& gv : snap.gauges) {
    if (gv.name == "test.gauge.reset") {
      EXPECT_DOUBLE_EQ(gv.value, 0.0);
    }
  }
  for (const auto& hv : snap.histograms) {
    if (hv.name == "test.hist.reset") {
      EXPECT_EQ(hv.count, 0u);
    }
  }
}

TEST_F(Metrics, ThreadShardedCountsMergeExactly) {
  static obs::Counter& c = obs::counter("test.counter.mt");
  static obs::Histogram& h = obs::histogram("test.hist.mt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        if (i % 100 == 0) h.observe(1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = obs::snapshot_metrics();
  // Exact, not approximate: each shard has a single writer and parked
  // shards keep their values, so no increment can be lost.
  EXPECT_EQ(snap.counter("test.counter.mt"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (const auto& hv : snap.histograms) {
    if (hv.name == "test.hist.mt") {
      EXPECT_EQ(hv.count, static_cast<std::uint64_t>(kThreads) *
                              (kPerThread / 100));
    }
  }
}

TEST_F(Metrics, SnapshotWhileWritersRunSeesMonotonicValues) {
  static obs::Counter& c = obs::counter("test.counter.racing");
  std::thread writer([] {
    for (int i = 0; i < 50000; ++i) c.add(1);
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t now =
        obs::snapshot_metrics().counter("test.counter.racing");
    EXPECT_GE(now, last);  // counts only ever grow
    last = now;
  }
  writer.join();
  EXPECT_EQ(obs::snapshot_metrics().counter("test.counter.racing"), 50000u);
}

TEST_F(Metrics, ToJsonIsValidAndCarriesAllSections) {
  static obs::Counter& c = obs::counter("test.json.counter");
  static obs::Gauge& g = obs::gauge("test.json.gauge");
  static obs::Histogram& h = obs::histogram("test.json.hist");
  c.add(5);
  g.set(2.5);
  h.observe(1.0);
  const std::string text = obs::snapshot_metrics().to_json().dump();
  util::Json json;
  ASSERT_NO_THROW(json = util::parse_json(text)) << text;
  EXPECT_EQ(json.keys(),
            (std::vector<std::string>{"counters", "gauges", "histograms"}));
  EXPECT_EQ(json.at("counters").at("test.json.counter").as_u64(), 5u);
  EXPECT_EQ(json.at("gauges").at("test.json.gauge").as_number(), 2.5);
  const util::Json& hist = json.at("histograms").at("test.json.hist");
  EXPECT_EQ(hist.keys().front(), "count");
  EXPECT_EQ(hist.at("count").as_u64(), 1u);
}

TEST_F(Metrics, WriteMetricsFileRoundTrips) {
  static obs::Counter& c = obs::counter("test.file.counter");
  c.add(9);
  const std::string path = ::testing::TempDir() + "/metrics_test.json";
  obs::write_metrics_file(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  util::Json json;
  ASSERT_NO_THROW(json = util::parse_json(body)) << body;
  EXPECT_EQ(json.at("counters").at("test.file.counter").as_u64(), 9u);
  EXPECT_EQ(body.back(), '\n');
  std::remove(path.c_str());
}

TEST_F(Metrics, WriteMetricsFileThrowsOnUnwritablePath) {
  EXPECT_THROW(obs::write_metrics_file("/nonexistent-dir/metrics.json"),
               Error);
}

TEST_F(Metrics, PrometheusExpositionCoversAllMetricTypes) {
  static obs::Counter& c = obs::counter("test.prom.counter");
  static obs::Gauge& g = obs::gauge("test.prom.gauge");
  static obs::Histogram& h = obs::histogram("test.prom.hist");
  c.add(5);
  g.set(2.5);
  h.observe(1.0);
  h.observe(3.0);
  const std::string text = obs::snapshot_metrics().to_prometheus();
  // Names are prefixed and dot-mangled to the Prometheus charset.
  EXPECT_NE(text.find("# TYPE amdrel_test_prom_counter counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amdrel_test_prom_counter 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE amdrel_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("amdrel_test_prom_gauge 2.5"), std::string::npos);
  // Histograms export as summaries: quantile samples plus _sum/_count.
  EXPECT_NE(text.find("# TYPE amdrel_test_prom_hist summary"),
            std::string::npos);
  EXPECT_NE(text.find("amdrel_test_prom_hist{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("amdrel_test_prom_hist{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(text.find("amdrel_test_prom_hist_sum 4"), std::string::npos);
  EXPECT_NE(text.find("amdrel_test_prom_hist_count 2"), std::string::npos);
  // Every line is either a comment or "name[{labels}] value", and no
  // metric name leaks an unmangled dot.
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of(" {");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_EQ(line.substr(0, name_end).find('.'), std::string::npos)
        << line;  // dots only ever appear in values
    EXPECT_EQ(line.compare(0, 7, "amdrel_"), 0) << line;
  }
}

}  // namespace
}  // namespace amdrel
