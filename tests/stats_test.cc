// Unit tests for histograms, counters and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/random.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace apiary {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_EQ(h.P50(), 42u);
  EXPECT_EQ(h.P999(), 42u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 32; ++v) {
    h.Record(v);
  }
  // Values below the sub-bucket count are stored exactly.
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_LE(h.P50(), 16u);
  EXPECT_GE(h.P50(), 15u);
}

TEST(HistogramTest, MeanAndStdDev) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  EXPECT_NEAR(h.StdDev(), 8.165, 0.01);
}

// Percentiles must land within the histogram's relative error (~3% for 32
// sub-buckets) across several magnitudes.
class HistogramAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramAccuracyTest, UniformPercentileWithinRelativeError) {
  const uint64_t scale = GetParam();
  Histogram h;
  Rng rng(1234);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng.NextBelow(scale) + 1;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const uint64_t exact = values[static_cast<size_t>(q * (values.size() - 1))];
    const uint64_t approx = h.Percentile(q);
    const double rel = std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
                       static_cast<double>(exact);
    EXPECT_LT(rel, 0.08) << "q=" << q << " scale=" << scale << " exact=" << exact
                         << " approx=" << approx;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramAccuracyTest,
                         ::testing::Values(100, 10000, 1000000, 100000000));

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.Record(7);
  EXPECT_EQ(h.P50(), 7u);
}

TEST(HistogramTest, RecordNWeightsValues) {
  Histogram h;
  h.RecordN(10, 99);
  h.RecordN(1000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.P50(), 10u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(HistogramTest, PercentileIsMonotoneInQ) {
  Histogram h;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    h.Record(rng.NextBelow(100000));
  }
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const uint64_t v = h.Percentile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  EXPECT_NE(h.Summary().find("n=2"), std::string::npos);
}

TEST(CounterSetTest, AddAndGet) {
  CounterSet c;
  c.Add("x");
  c.Add("x", 4);
  EXPECT_EQ(c.Get("x"), 5u);
  EXPECT_EQ(c.Get("missing"), 0u);
}

TEST(CounterSetTest, SetOverwrites) {
  CounterSet c;
  c.Add("x", 10);
  c.Set("x", 3);
  EXPECT_EQ(c.Get("x"), 3u);
}

TEST(CounterSetTest, MergeSums) {
  CounterSet a;
  CounterSet b;
  a.Add("x", 1);
  b.Add("x", 2);
  b.Add("y", 7);
  a.Merge(b);
  EXPECT_EQ(a.Get("x"), 3u);
  EXPECT_EQ(a.Get("y"), 7u);
}

TEST(CounterSetTest, ToStringSortedByName) {
  CounterSet c;
  c.Add("beta", 2);
  c.Add("alpha", 1);
  EXPECT_EQ(c.ToString(), "alpha=1 beta=2");
}

TEST(CounterSetTest, IdAndNameAddHitTheSameSlot) {
  CounterSet c;
  const CounterId id = c.Intern("x");
  c.Add(id);
  c.Add("x", 2);
  c.Add(id, 4);
  EXPECT_EQ(c.Get("x"), 7u);
  EXPECT_EQ(c.Intern("x"), id);
  EXPECT_EQ(c.ToString(), "x=7");
}

TEST(CounterSetTest, InternedButNeverBumpedIsAbsent) {
  CounterSet c;
  c.Intern("quiet");
  c.Add("loud");
  EXPECT_EQ(c.Get("quiet"), 0u);
  EXPECT_EQ(c.ToString(), "loud=1");
  CounterSet total;
  total.Merge(c);
  EXPECT_EQ(total.ToString(), "loud=1");
}

TEST(CounterSetTest, AddZeroMakesNamePresent) {
  CounterSet c;
  const CounterId id = c.Intern("a");
  c.Add("b", 0);
  c.Add(id, 0);
  EXPECT_EQ(c.ToString(), "a=0 b=0");
  CounterSet total;
  total.Merge(c);
  EXPECT_EQ(total.ToString(), "a=0 b=0");
}

TEST(CounterSetTest, MergeAcrossDifferentInternOrders) {
  CounterSet a;
  const CounterId ax = a.Intern("x");
  a.Intern("y");
  CounterSet b;
  const CounterId by = b.Intern("y");
  const CounterId bx = b.Intern("x");
  a.Add(ax, 1);
  b.Add(by, 10);
  b.Add(bx, 100);
  b.Add("z", 1000);
  a.Merge(b);
  EXPECT_EQ(a.ToString(), "x=101 y=10 z=1000");
  a.Add(ax);  // Merging added slots; earlier ids still name their counters.
  EXPECT_EQ(a.Get("x"), 102u);
}

TEST(CounterSetTest, ResetKeepsIdsValid) {
  CounterSet c;
  const CounterId x = c.Intern("x");
  const CounterId y = c.Intern("y");
  c.Add(x, 5);
  c.Add(y, 6);
  c.Reset();
  EXPECT_EQ(c.ToString(), "");
  EXPECT_EQ(c.Get("x"), 0u);
  c.Add(y, 2);
  EXPECT_EQ(c.ToString(), "y=2");
  EXPECT_EQ(c.Intern("y"), y);
  c.Add("x");
  EXPECT_EQ(c.Get("x"), 1u);
  EXPECT_EQ(c.Intern("x"), x);
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  s.Record(1);
  s.Record(2);
  s.Record(3);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 3.0);
  EXPECT_NEAR(s.StdDev(), 0.8165, 0.001);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
}

TEST(TableTest, CsvRendering) {
  Table t("demo");
  t.SetHeader({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({"3", "4"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n3,4\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(TableTest, IntGroupsDigits) {
  EXPECT_EQ(Table::Int(0), "0");
  EXPECT_EQ(Table::Int(999), "999");
  EXPECT_EQ(Table::Int(1000), "1,000");
  EXPECT_EQ(Table::Int(3780000), "3,780,000");
}

}  // namespace
}  // namespace apiary
