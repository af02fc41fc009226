// Unit tests for src/common: statistics, RNG, status, table rendering.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/simulator/metrics.h"

namespace sarathi {
namespace {

TEST(SummaryTest, SingleSampleQuantiles) {
  Summary s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 5.0);
}

TEST(SummaryTest, MedianOfOddCount) {
  Summary s;
  s.AddAll({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.Median(), 2.0);
}

TEST(SummaryTest, MedianOfEvenCountInterpolates) {
  Summary s;
  s.AddAll({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.Median(), 2.5);
}

TEST(SummaryTest, QuantileEndpoints) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  // numpy linear convention: q*(n-1) rank interpolation.
  EXPECT_NEAR(s.Quantile(0.99), 99.01, 1e-9);
}

TEST(SummaryTest, QuantileIsMonotone) {
  Summary s;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    s.Add(rng.Uniform(0.0, 100.0));
  }
  double prev = s.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    double cur = s.Quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

// Bit-for-bit equality (EXPECT_EQ on doubles would also pass -0.0 == 0.0).
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Random samples with heavy ties: values drawn from a few distinct levels
// half of the time, so selection and sorting must agree on duplicates.
std::vector<double> RandomSamples(Rng& rng, size_t n) {
  std::vector<double> samples(n);
  for (double& sample : samples) {
    sample = rng.UniformInt(0, 1) == 0 ? static_cast<double>(rng.UniformInt(0, 3)) * 0.25
                                       : rng.Uniform(0.0, 1.0);
  }
  return samples;
}

TEST(SelectQuantileTest, MatchesSortedSummaryBitForBit) {
  Rng rng(17);
  const double kQs[] = {0.0, 0.5, 0.99, 1.0, 0.25, 0.9};
  for (int trial = 0; trial < 400; ++trial) {
    // n = 1 and 2 on the first trials, then random sizes.
    size_t n = trial < 2 ? static_cast<size_t>(trial + 1)
                         : static_cast<size_t>(rng.UniformInt(1, 300));
    std::vector<double> samples = RandomSamples(rng, n);
    Summary summary;
    summary.AddAll(samples);
    for (double q : kQs) {
      std::vector<double> scratch = samples;
      double selected = SelectQuantile(scratch, q);
      double sorted = summary.Quantile(q);
      ASSERT_TRUE(SameBits(selected, sorted))
          << "n " << n << " q " << q << ": selected " << selected << " sorted " << sorted;
    }
  }
}

// A SimResult of random requests, including ones with 0 and 1 output tokens
// (no gaps) and some that never completed.
SimResult RandomResult(Rng& rng) {
  SimResult result;
  auto requests = rng.UniformInt(1, 40);
  for (int64_t i = 0; i < requests; ++i) {
    RequestMetrics r;
    r.id = i;
    r.arrival_s = rng.Uniform(0.0, 10.0);
    auto tokens = rng.UniformInt(0, 3) == 0 ? rng.UniformInt(0, 1) : rng.UniformInt(2, 60);
    double t = r.arrival_s + rng.Uniform(0.0, 3.0);
    for (int64_t k = 0; k < tokens; ++k) {
      r.token_times_s.push_back(t);
      // Repeated gaps (ties) as well as spread-out ones and rare stalls.
      t += rng.UniformInt(0, 1) == 0 ? 0.05 : rng.Uniform(0.0, 0.2) * (k % 17 == 16 ? 5 : 1);
    }
    if (tokens > 0 && rng.UniformInt(0, 4) > 0) {
      r.completion_s = r.token_times_s.back();
    }
    result.requests.push_back(std::move(r));
  }
  return result;
}

TEST(SimResultTbtTest, SummariesMatchTbtSamplesReference) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    SimResult result = RandomResult(rng);
    std::vector<double> all;
    for (const RequestMetrics& r : result.requests) {
      std::vector<double> gaps = r.TbtSamples();
      all.insert(all.end(), gaps.begin(), gaps.end());
    }
    Summary summary = result.TbtSummary();
    ASSERT_EQ(summary.samples(), all) << "trial " << trial;
    double p99 = result.P99Tbt();
    ASSERT_TRUE(SameBits(p99, all.empty() ? 0.0 : summary.Quantile(0.99)))
        << "trial " << trial << ": " << p99;
    ASSERT_TRUE(SameBits(result.MaxTbt(), all.empty() ? 0.0 : std::max(0.0, summary.Max())))
        << "trial " << trial;
    for (double threshold : {0.0, 0.05, 0.1, 0.5}) {
      auto stalls = std::count_if(all.begin(), all.end(),
                                  [&](double gap) { return gap > threshold; });
      ASSERT_EQ(result.CountStalls(threshold), stalls) << "trial " << trial;
    }
    for (double tbt_slo : {0.05, 0.15, std::numeric_limits<double>::infinity()}) {
      double ttft_slo = 2.0;
      int64_t completed = 0;
      int64_t attained = 0;
      for (const RequestMetrics& r : result.requests) {
        if (!r.completed()) {
          continue;
        }
        ++completed;
        std::vector<double> gaps = r.TbtSamples();
        bool ok = r.Ttft() <= ttft_slo &&
                  std::none_of(gaps.begin(), gaps.end(),
                               [&](double gap) { return gap > tbt_slo; });
        attained += ok ? 1 : 0;
      }
      double want = completed == 0 ? 0.0
                                   : static_cast<double>(attained) /
                                         static_cast<double>(completed);
      ASSERT_TRUE(SameBits(result.SloAttainment(ttft_slo, tbt_slo), want))
          << "trial " << trial << " tbt slo " << tbt_slo;
    }
  }
}

TEST(SummaryTest, MeanAndStdDev) {
  Summary s;
  s.AddAll({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.StdDev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SummaryTest, MinMax) {
  Summary s;
  s.AddAll({3.0, -1.0, 7.5});
  EXPECT_DOUBLE_EQ(s.Min(), -1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 7.5);
}

TEST(SummaryTest, AddAfterQuantileInvalidatesCache) {
  Summary s;
  s.AddAll({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.Median(), 2.0);
  s.Add(100.0);
  EXPECT_DOUBLE_EQ(s.Median(), 2.5);
}

TEST(RunningStatsTest, MatchesSummary) {
  Summary summary;
  RunningStats running;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    double v = rng.Normal(10.0, 3.0);
    summary.Add(v);
    running.Add(v);
  }
  EXPECT_NEAR(running.Mean(), summary.Mean(), 1e-9);
  EXPECT_NEAR(running.StdDev(), summary.StdDev(), 1e-9);
  EXPECT_DOUBLE_EQ(running.Min(), summary.Min());
  EXPECT_DOUBLE_EQ(running.Max(), summary.Max());
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats r;
  EXPECT_EQ(r.count(), 0);
  EXPECT_DOUBLE_EQ(r.Mean(), 0.0);
  r.Add(42.0);
  EXPECT_DOUBLE_EQ(r.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(r.Variance(), 0.0);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);   // Bucket 0.
  h.Add(9.99);  // Bucket 9.
  h.Add(-5.0);  // Clamps to bucket 0.
  h.Add(50.0);  // Clamps to bucket 9.
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(9), 2);
  EXPECT_EQ(h.total(), 4);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 4.0);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0.0, 1.0), b.Uniform(0.0, 1.0));
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(9);
  Rng child = a.Fork();
  // Child consumption must not change the parent stream relative to a twin
  // that forked but ignored the child.
  Rng b(9);
  Rng child_b = b.Fork();
  for (int i = 0; i < 10; ++i) {
    (void)child.Uniform(0.0, 1.0);
  }
  (void)child_b;
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0.0, 1.0), b.Uniform(0.0, 1.0));
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Exponential(2.0);
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.LogNormal(std::log(100.0), 0.5));
  }
  EXPECT_NEAR(s.Median(), 100.0, 3.0);
}

TEST(StatusTest, OkStatus) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFormatting) {
  Status s = InvalidArgumentError("bad token budget");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad token budget");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22.5"});
  std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("22.5"), std::string::npos);
  // Header separator present.
  EXPECT_NE(rendered.find("----"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
  EXPECT_EQ(Table::Int(-7), "-7");
}

TEST(LoggingTest, SeverityFilterSuppressesDebug) {
  std::ostringstream capture;
  SetLogStream(&capture);
  SetMinLogSeverity(LogSeverity::kInfo);
  LOG(Debug) << "hidden";
  LOG(Info) << "visible";
  SetLogStream(nullptr);
  EXPECT_EQ(capture.str().find("hidden"), std::string::npos);
  EXPECT_NE(capture.str().find("visible"), std::string::npos);
}

TEST(LoggingTest, CheckPassesSilently) {
  CHECK_EQ(1 + 1, 2);
  CHECK_LT(1, 2);
  CHECK(true) << "never evaluated";
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ CHECK_EQ(1, 2) << "boom"; }, "Check failed");
}

}  // namespace
}  // namespace sarathi
