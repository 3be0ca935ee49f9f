// Tests for the utility substrate: status/checks, RNG, strings, math, table.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "util/math.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace af {
namespace {

TEST(StatusTest, CheckThrowsWithMessage) {
  try {
    AF_CHECK(false, "value was " << 42);
    FAIL() << "expected af::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(StatusTest, CheckPassesSilently) {
  EXPECT_NO_THROW(AF_CHECK(1 + 1 == 2, "arithmetic broke"));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(RngTest, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(RngTest, NextInCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(2304, 128), 18);
  EXPECT_EQ(ceil_div(2304, 132), 18);  // paper Fig. 5 tiling
}

TEST(MathTest, RoundUp) {
  EXPECT_EQ(round_up(5, 4), 8);
  EXPECT_EQ(round_up(8, 4), 8);
}

TEST(MathTest, Divides) {
  EXPECT_TRUE(divides(4, 132));
  EXPECT_TRUE(divides(3, 132));
  EXPECT_FALSE(divides(3, 128));
  EXPECT_FALSE(divides(0, 128));
}

TEST(MathTest, Ilog2) {
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(255), 7);
  EXPECT_EQ(ilog2(256), 8);
  EXPECT_THROW(ilog2(0), Error);
}

TEST(MathTest, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(128));
  EXPECT_FALSE(is_power_of_two(132));
  EXPECT_FALSE(is_power_of_two(0));
}

TEST(StringsTest, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
  EXPECT_EQ(with_commas(std::numeric_limits<std::int64_t>::min()),
            "-9,223,372,036,854,775,808");
}

TEST(StringsTest, Percent) {
  EXPECT_EQ(percent(0.1234, 1), "12.3%");
  EXPECT_EQ(percent(-0.05, 0), "-5%");
}

TEST(StringsTest, FormatTimePs) {
  EXPECT_EQ(format_time_ps(500.0), "500.0 ps");
  EXPECT_EQ(format_time_ps(1500.0), "1.50 ns");
  EXPECT_EQ(format_time_ps(2.5e6), "2.50 us");
  EXPECT_EQ(format_time_ps(3.25e9), "3.250 ms");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("pe0/cpa/x", "pe0/cpa"));
  EXPECT_FALSE(starts_with("pe10/cpa", "pe1/"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"k", "period"});
  t.add_row({"1", "555.6"});
  t.add_row({"2", "588.2"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| k | period |"), std::string::npos);
  EXPECT_NE(s.find("| 1 |  555.6 |"), std::string::npos);
}

TEST(TableTest, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, SeparatorAndAlignment) {
  Table t({"name", "v"});
  t.set_align(0, Table::Align::kLeft);
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"longer", "2"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| x      | 1 |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::int64_t i) {
                                   if (i == 13) {
                                     AF_CHECK(false, "boom at " << i);
                                   }
                                 }),
               Error);
  // The pool must stay usable after a failed job.
  std::atomic<int> done{0};
  pool.parallel_for(8, [&](std::int64_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, ReentrantParallelForRunsInlineInsteadOfDeadlocking) {
  // Regression: a task body calling parallel_for on its own pool used to
  // block forever on the job lock / in-flight count.  Now the nested call
  // executes inline on the calling thread.
  util::ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  std::atomic<int> region_seen{0};
  pool.parallel_for(4, [&](std::int64_t) {
    if (util::ThreadPool::in_parallel_region()) region_seen.fetch_add(1);
    pool.parallel_for(8, [&](std::int64_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
  EXPECT_EQ(region_seen.load(), 4);
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
}

TEST(ThreadPoolTest, NestedRunNFallsBackToSerial) {
  // A threaded component driving another threaded component (runner ->
  // array) must not fan out twice: the inner run_n detects it is already
  // inside a pool task and stays serial, even against a DIFFERENT pool.
  util::ThreadPool outer(4);
  util::ThreadPool inner(4);
  std::atomic<int> inner_iterations{0};
  util::ThreadPool::run_n(&outer, 4, [&](std::int64_t) {
    util::ThreadPool::run_n(&inner, 16, [&](std::int64_t) {
      EXPECT_TRUE(util::ThreadPool::in_parallel_region());
      inner_iterations.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_iterations.load(), 4 * 16);
}

TEST(ThreadPoolTest, ConcurrentCallersBothCompleteWithoutConvoying) {
  // Two threads fanning out on one shared pool (the serving shards'
  // situation): the loser of the job slot runs inline instead of blocking
  // behind the winner, and both jobs finish with every index covered.
  util::ThreadPool pool(4);
  std::atomic<int> total{0};
  std::thread other([&] {
    pool.parallel_for(64, [&](std::int64_t) { total.fetch_add(1); });
  });
  pool.parallel_for(64, [&](std::int64_t) { total.fetch_add(1); });
  other.join();
  EXPECT_EQ(total.load(), 128);
}

TEST(ThreadPoolTest, ReentrantExceptionStillPropagates) {
  util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(2,
                        [&](std::int64_t) {
                          pool.parallel_for(2, [&](std::int64_t j) {
                            AF_CHECK(j < 1, "nested failure");
                          });
                        }),
      Error);
}

}  // namespace
}  // namespace af
