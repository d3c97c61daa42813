#include "index/equi_depth_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "eval/metrics.h"
#include "tests/test_util.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {100, 100}};

TEST(EquiDepthHistogramTest, EmptyInput) {
  const EquiDepthHistogram hist = EquiDepthHistogram::Build({});
  EXPECT_TRUE(hist.buckets().empty());
  EXPECT_TRUE(hist.Estimate(QueryRange::MakeCircle({0, 0}, 10)).empty());
}

TEST(EquiDepthHistogramTest, BucketCountRespectsBudget) {
  const ObjectSet objects = testing::RandomObjects(10000, kDomain, 1);
  EquiDepthHistogram::Options options;
  options.max_buckets = 64;
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects, options);
  EXPECT_LE(hist.buckets().size(), 2 * options.max_buckets);
  EXPECT_GE(hist.buckets().size(), options.max_buckets / 2);
}

TEST(EquiDepthHistogramTest, BucketsAreEquiDepth) {
  const ObjectSet objects = testing::ClusteredObjects(8192, kDomain, 4, 2);
  EquiDepthHistogram::Options options;
  options.max_buckets = 128;
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects, options);
  const size_t target = 8192 / 128;
  for (const auto& bucket : hist.buckets()) {
    EXPECT_LE(bucket.summary.count, target);
    EXPECT_GE(bucket.summary.count, 1UL);
  }
}

TEST(EquiDepthHistogramTest, TotalsPreserved) {
  const ObjectSet objects = testing::RandomObjects(5000, kDomain, 3);
  AggregateSummary expected;
  for (const SpatialObject& o : objects) expected.Add(o);
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects);
  EXPECT_EQ(hist.total().count, expected.count);
  EXPECT_NEAR(hist.total().sum, expected.sum, 1e-9);
}

TEST(EquiDepthHistogramTest, WholeDomainEstimateIsExact) {
  const ObjectSet objects = testing::RandomObjects(2000, kDomain, 4);
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects);
  const AggregateSummary estimate =
      hist.Estimate(QueryRange::MakeRect({-1, -1}, {101, 101}));
  EXPECT_EQ(estimate.count, 2000UL);
}

TEST(EquiDepthHistogramTest, DisjointQueryIsZero) {
  const ObjectSet objects = testing::RandomObjects(2000, kDomain, 5);
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects);
  EXPECT_TRUE(
      hist.Estimate(QueryRange::MakeCircle({500, 500}, 10)).empty());
}

TEST(EquiDepthHistogramTest, UniformDataEstimateWithinTolerance) {
  // On uniform data the per-bucket uniformity assumption is exact in
  // expectation, so errors should be small for moderately large ranges.
  const ObjectSet objects = testing::RandomObjects(50000, kDomain, 6);
  EquiDepthHistogram::Options options;
  options.max_buckets = 1024;
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects, options);

  Rng rng(7);
  MreAccumulator mre;
  for (int q = 0; q < 40; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 25.0, true, &rng);
    const AggregateSummary exact = SummarizeIf(
        objects, [&](const Point& p) { return range.Contains(p); });
    if (exact.count < 100) continue;
    const AggregateSummary estimate = hist.Estimate(range);
    mre.Add(static_cast<double>(exact.count),
            static_cast<double>(estimate.count));
  }
  ASSERT_GT(mre.count(), 10UL);
  EXPECT_LT(mre.Mre(), 0.15);
}

TEST(EquiDepthHistogramTest, ClusteredDataEstimateIsWorseButBounded) {
  const ObjectSet objects = testing::ClusteredObjects(50000, kDomain, 5, 8);
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects);
  Rng rng(9);
  MreAccumulator mre;
  for (int q = 0; q < 40; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 25.0, false, &rng);
    const AggregateSummary exact = SummarizeIf(
        objects, [&](const Point& p) { return range.Contains(p); });
    if (exact.count < 200) continue;
    mre.Add(static_cast<double>(exact.count),
            static_cast<double>(hist.Estimate(range).count));
  }
  ASSERT_GT(mre.count(), 5UL);
  EXPECT_LT(mre.Mre(), 0.4);
}

TEST(EquiDepthHistogramTest, DegeneratePointMassBucket) {
  ObjectSet objects;
  for (int i = 0; i < 100; ++i) objects.push_back({{5.0, 5.0}, 2.0});
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects);
  EXPECT_EQ(hist.Estimate(QueryRange::MakeCircle({5, 5}, 1)).count, 100UL);
  EXPECT_EQ(hist.Estimate(QueryRange::MakeCircle({50, 50}, 1)).count, 0UL);
}

// The plain linear scan over buckets() that Estimate prunes.
AggregateSummary LinearScanEstimate(const EquiDepthHistogram& hist,
                                    const QueryRange& range) {
  AggregateSummary acc;
  for (const EquiDepthHistogram::Bucket& bucket : hist.buckets()) {
    if (!range.Intersects(bucket.bounds)) continue;
    if (range.Contains(bucket.bounds)) {
      acc.count += bucket.summary.count;
      acc.sum += bucket.summary.sum;
      acc.sum_sqr += bucket.summary.sum_sqr;
      continue;
    }
    const double area = bucket.bounds.Area();
    const double fraction =
        area <= 0.0
            ? (range.Contains(bucket.bounds.Center()) ? 1.0 : 0.0)
            : std::clamp(range.IntersectionArea(bucket.bounds) / area, 0.0,
                         1.0);
    if (fraction <= 0.0) continue;
    acc.count += static_cast<uint64_t>(
        std::llround(static_cast<double>(bucket.summary.count) * fraction));
    acc.sum += bucket.summary.sum * fraction;
    acc.sum_sqr += bucket.summary.sum_sqr * fraction;
  }
  return acc;
}

TEST(EquiDepthHistogramTest, PrunedEstimateMatchesLinearScanBitForBit) {
  ObjectSet objects = testing::ClusteredObjects(20000, kDomain, 6, 11);
  // Degenerate zero-area buckets: a stack of duplicates and a vertical
  // run of collinear points.
  for (int i = 0; i < 600; ++i) objects.push_back({{20.0, 70.0}, 1.0});
  for (int i = 0; i < 600; ++i) {
    objects.push_back({{60.0, 10.0 + 0.05 * i}, 1.0});
  }
  testing::FractionalMeasures(&objects, 12);
  EquiDepthHistogram::Options options;
  options.max_buckets = 512;
  const EquiDepthHistogram hist = EquiDepthHistogram::Build(objects, options);
  size_t zero_area = 0;
  for (const auto& bucket : hist.buckets()) {
    if (bucket.bounds.Area() == 0.0) ++zero_area;
  }
  ASSERT_GT(zero_area, 1U);

  Rng rng(13);
  std::vector<QueryRange> ranges = {
      QueryRange::MakeRect({-1, -1}, {101, 101}),
      QueryRange::MakeCircle({20, 70}, 0.5),
      QueryRange::MakeRect({55, 20}, {65, 30}),  // cuts the collinear run
      QueryRange::MakeCircle({60, 25}, 3),
      QueryRange::MakeCircle({500, 500}, 3),
  };
  for (int q = 0; q < 300; ++q) {
    ranges.push_back(testing::RandomRange(kDomain, q % 3 == 0 ? 40.0 : 8.0,
                                          q % 2 == 0, &rng));
  }
  for (size_t q = 0; q < ranges.size(); ++q) {
    EXPECT_TRUE(testing::SameBits(hist.Estimate(ranges[q]),
                                  LinearScanEstimate(hist, ranges[q])))
        << "query " << q;
  }
}

TEST(EquiDepthHistogramTest, MemoryScalesWithBuckets) {
  const ObjectSet objects = testing::RandomObjects(4096, kDomain, 10);
  EquiDepthHistogram::Options small;
  small.max_buckets = 16;
  EquiDepthHistogram::Options large;
  large.max_buckets = 1024;
  EXPECT_LT(EquiDepthHistogram::Build(objects, small).MemoryUsage(),
            EquiDepthHistogram::Build(objects, large).MemoryUsage());
}

}  // namespace
}  // namespace fra
