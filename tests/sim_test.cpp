// Simulation-support module: statistics, VCD writer, CSV reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/report.h"
#include "sim/stats.h"
#include "sim/vcd.h"
#include "util/rng.h"
#include "util/status.h"

namespace af::sim {
namespace {

TEST(RunningStatTest, MeanMinMax) {
  RunningStat s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.stddev() * s.stddev(), s.variance(), 1e-12);
}

TEST(RunningStatTest, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MergeMatchesSequentialAdds) {
  // Parallel-reduction contract: merging per-thread collectors must equal
  // feeding every sample to one collector.
  const std::vector<double> samples = {3.0, -1.5, 8.25, 0.0, 12.5, -4.0, 7.0};
  RunningStat all;
  for (const double v : samples) all.add(v);

  RunningStat left, right, merged;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i < 3 ? left : right).add(samples[i]);
  }
  merged.merge(left);
  merged.merge(right);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(merged.min(), all.min());
  EXPECT_DOUBLE_EQ(merged.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmptyIsIdentity) {
  RunningStat s, empty;
  s.add(2.0);
  s.add(4.0);
  s.merge(empty);
  EXPECT_EQ(s.count(), 2);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(RunningStatTest, MergeEmptyIntoEmptyStaysEmptyAndUsable) {
  RunningStat a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  // The sentinel extrema must not have leaked into real statistics: the
  // collector still works normally after the no-op merge.
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

TEST(RunningStatTest, MergeEmptyIntoNonemptyKeepsExtrema) {
  RunningStat s, empty;
  s.add(-1.0);
  s.add(7.0);
  s.merge(empty);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.count(), 2);
}

TEST(RunningStatTest, SelfMergeDoublesEverySample) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  s.merge(s);
  // Equivalent to the multiset {1, 2, 3, 1, 2, 3}.
  EXPECT_EQ(s.count(), 6);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0 / 5.0);

  RunningStat empty;
  empty.merge(empty);  // empty self-merge is a no-op, not a poison
  EXPECT_EQ(empty.count(), 0);
}

// The q-quantile of sorted samples by nearest rank: the ceil(q * n)-th
// smallest.
double nearest_rank(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  const auto rank =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q * n)));
  return sorted[rank - 1];
}

// Never under-reports; over-reports by at most one sub-bucket (1/64).
constexpr double kMaxOverReport = 1.0 + 1.0 / Histogram::kSubBuckets;

TEST(HistogramTest, LogUniformQuantilesBoundTheExactNearestRank) {
  Rng rng(7);
  for (const int n : {2, 3, 10, 101, 1000, 100000}) {
    Histogram h;
    std::vector<double> samples;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      const double ms = 1e-3 * std::pow(1e7, rng.next_double());  // 1us-10s
      h.add(ms);
      samples.push_back(ms);
      sum += ms;
    }
    std::sort(samples.begin(), samples.end());
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.overflow(), 0);
    EXPECT_EQ(h.min(), samples.front());
    EXPECT_EQ(h.max(), samples.back());
    EXPECT_DOUBLE_EQ(h.mean(), sum / n);
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      const double exact = nearest_rank(samples, q);
      EXPECT_GE(h.quantile(q), exact) << "n " << n << " q " << q;
      EXPECT_LE(h.quantile(q), exact * kMaxOverReport)
          << "n " << n << " q " << q;
    }
    EXPECT_EQ(h.quantile(1.0), samples.back());
  }
}

TEST(HistogramTest, PointMassIsEveryQuantile) {
  // Below the bottom edge, in range, and past the top edge; n = 1 and 5.
  for (const double ms : {0.0, 2e-4, 0.0123, 1.0, 3.7e3, 1e9}) {
    for (const int n : {1, 5}) {
      Histogram h;
      for (int i = 0; i < n; ++i) h.add(ms);
      for (const double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(h.quantile(q), ms) << ms << " n " << n << " q " << q;
      }
    }
  }
}

TEST(HistogramTest, OverflowCountsSamplesAboveTheTopEdge) {
  const double top = std::ldexp(1.0, Histogram::kMaxExponent);
  Histogram h;
  for (int i = 1; i <= 99; ++i) h.add(static_cast<double>(i));
  h.add(3.0 * top);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.max(), 3.0 * top);
  EXPECT_EQ(h.quantile(1.0), 3.0 * top);
  EXPECT_GE(h.quantile(0.5), 50.0);  // in-range ranks are unaffected
  EXPECT_LE(h.quantile(0.5), 50.0 * kMaxOverReport);
}

TEST(HistogramTest, QuantileOfEmptyHistogramThrows) {
  Histogram h;
  EXPECT_THROW(h.quantile(0.5), Error);
}

TEST(HistogramTest, NearestRankP99RoundsUpOnSmallWindows) {
  // The autoscaler's wait signal (Server::control_loop): a tiny window
  // must surface its slow sample (nearest-rank p99 of n = 2 is the max),
  // or trickle traffic with long waits would never trip the grow limit.
  Histogram window;
  window.add(0.02);
  window.add(80.0);
  EXPECT_EQ(window.count(), 2);
  EXPECT_EQ(window.quantile(0.99), 80.0);
  EXPECT_EQ(window.max(), 80.0);
  // 200 samples: nearest-rank p99 is the 198th order statistic.
  Histogram wide;
  for (int i = 1; i <= 200; ++i) wide.add(static_cast<double>(i));
  EXPECT_GE(wide.quantile(0.99), 198.0);
  EXPECT_LE(wide.quantile(0.99), 198.0 * kMaxOverReport);
}

TEST(VcdTest, WritesWellFormedFile) {
  const std::string path = ::testing::TempDir() + "/af_test.vcd";
  {
    VcdWriter vcd(path, "1ns");
    const int clk = vcd.add_signal("clk", 1);
    const int bus = vcd.add_signal("west_a", 8);
    vcd.set_time(0);
    vcd.change(clk, 0);
    vcd.change(bus, 0xA5);
    vcd.set_time(1);
    vcd.change(clk, 1);
    vcd.change(bus, 0xA5);  // unchanged: must be suppressed
    vcd.set_time(2);
    vcd.change(bus, 0x3C);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 8 \" west_a $end"), std::string::npos);
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("b10100101 \""), std::string::npos);
  EXPECT_NE(text.find("b00111100 \""), std::string::npos);
  // The duplicate value at time 1 must appear only once in the dump.
  const auto first = text.find("b10100101");
  EXPECT_EQ(text.find("b10100101", first + 1), std::string::npos);
  std::remove(path.c_str());
}

TEST(VcdTest, DeclarationAfterTimeRejected) {
  const std::string path = ::testing::TempDir() + "/af_test2.vcd";
  VcdWriter vcd(path);
  vcd.add_signal("a", 1);
  vcd.set_time(0);
  EXPECT_THROW(vcd.add_signal("late", 1), Error);
  EXPECT_THROW(vcd.change(5, 1), Error);
  std::remove(path.c_str());
}

TEST(VcdTest, TimeMustBeMonotone) {
  const std::string path = ::testing::TempDir() + "/af_test3.vcd";
  VcdWriter vcd(path);
  vcd.add_signal("a", 1);
  vcd.set_time(5);
  EXPECT_THROW(vcd.set_time(4), Error);
  std::remove(path.c_str());
}

TEST(BannerTest, SizesToTitle) {
  const std::string b = banner("Fig. 5");
  EXPECT_NE(b.find("==== Fig. 5 ===="), std::string::npos);
}

TEST(CsvReportTest, RendersAndValidates) {
  CsvReport csv({"k", "cycles", "time"});
  csv.add_row({"1", "590", "327.8"});
  csv.add_row({"2", "458", "269.4"});
  const std::string text = csv.render();
  EXPECT_NE(text.find("k,cycles,time\n"), std::string::npos);
  EXPECT_NE(text.find("2,458,269.4\n"), std::string::npos);
  EXPECT_THROW(csv.add_row({"too", "few"}), Error);
}

TEST(CsvReportTest, WriteToFileAndUnwritablePath) {
  CsvReport csv({"a"});
  csv.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/af_report.csv";
  EXPECT_TRUE(csv.write_to(path));
  EXPECT_FALSE(csv.write_to("/nonexistent-dir/x/y.csv"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace af::sim
