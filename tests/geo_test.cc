#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geo/circle.h"
#include "geo/point.h"
#include "geo/projection.h"
#include "geo/range.h"
#include "geo/rect.h"
#include "util/random.h"

namespace fra {
namespace {

TEST(PointTest, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {4, 5}), 25.0);
  EXPECT_DOUBLE_EQ(Distance({2, 2}, {2, 2}), 0.0);
}

TEST(RectTest, ContainsIsBoundaryInclusive) {
  const Rect rect{{0, 0}, {10, 5}};
  EXPECT_TRUE(rect.Contains(Point{0, 0}));
  EXPECT_TRUE(rect.Contains(Point{10, 5}));
  EXPECT_TRUE(rect.Contains(Point{5, 2.5}));
  EXPECT_FALSE(rect.Contains(Point{10.001, 2}));
  EXPECT_FALSE(rect.Contains(Point{5, -0.001}));
}

TEST(RectTest, AreaWidthHeight) {
  const Rect rect{{1, 2}, {4, 8}};
  EXPECT_DOUBLE_EQ(rect.Width(), 3.0);
  EXPECT_DOUBLE_EQ(rect.Height(), 6.0);
  EXPECT_DOUBLE_EQ(rect.Area(), 18.0);
  EXPECT_EQ(rect.Center(), (Point{2.5, 5.0}));
}

TEST(RectTest, EmptyIsInvalidAndAbsorbsUnions) {
  Rect rect = Rect::Empty();
  EXPECT_FALSE(rect.IsValid());
  EXPECT_DOUBLE_EQ(rect.Area(), 0.0);
  rect.ExpandToInclude(Point{3, 4});
  EXPECT_TRUE(rect.IsValid());
  EXPECT_EQ(rect.min, (Point{3, 4}));
  EXPECT_EQ(rect.max, (Point{3, 4}));
  rect.ExpandToInclude(Point{-1, 10});
  EXPECT_EQ(rect.min, (Point{-1, 4}));
  EXPECT_EQ(rect.max, (Point{3, 10}));
}

TEST(RectTest, ExpandToIncludeRect) {
  Rect rect{{0, 0}, {1, 1}};
  rect.ExpandToInclude(Rect{{2, -1}, {3, 0.5}});
  EXPECT_EQ(rect, (Rect{{0, -1}, {3, 1}}));
}

TEST(RectTest, IntersectionAndPredicates) {
  const Rect a{{0, 0}, {10, 10}};
  const Rect b{{5, 5}, {15, 15}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_EQ(Intersection(a, b), (Rect{{5, 5}, {10, 10}}));

  const Rect c{{11, 11}, {12, 12}};
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_FALSE(Intersection(a, c).IsValid());

  // Touching edges count as intersecting (boundary inclusive).
  const Rect d{{10, 0}, {20, 10}};
  EXPECT_TRUE(a.Intersects(d));

  EXPECT_TRUE(a.Contains(Rect{{1, 1}, {9, 9}}));
  EXPECT_TRUE(a.Contains(a));
  EXPECT_FALSE(a.Contains(b));
}

TEST(RectTest, SquaredDistanceToPoint) {
  const Rect rect{{0, 0}, {10, 10}};
  EXPECT_DOUBLE_EQ(rect.SquaredDistanceTo(Point{5, 5}), 0.0);   // inside
  EXPECT_DOUBLE_EQ(rect.SquaredDistanceTo(Point{13, 5}), 9.0);  // right
  EXPECT_DOUBLE_EQ(rect.SquaredDistanceTo(Point{13, 14}), 25.0);  // corner
  EXPECT_DOUBLE_EQ(rect.SquaredDistanceTo(Point{-2, -2}), 8.0);
}

TEST(CircleTest, ContainsIsBoundaryInclusive) {
  const Circle circle{{0, 0}, 5.0};
  EXPECT_TRUE(circle.Contains(Point{3, 4}));    // exactly on boundary
  EXPECT_TRUE(circle.Contains(Point{0, 0}));
  EXPECT_FALSE(circle.Contains(Point{3.01, 4}));
}

TEST(CircleTest, IntersectsRect) {
  const Circle circle{{0, 0}, 2.0};
  EXPECT_TRUE(circle.Intersects(Rect{{-1, -1}, {1, 1}}));    // overlaps
  EXPECT_TRUE(circle.Intersects(Rect{{2, -1}, {4, 1}}));     // touches edge
  EXPECT_FALSE(circle.Intersects(Rect{{2.1, 2.1}, {3, 3}}));  // corner gap
  EXPECT_TRUE(circle.Intersects(Rect{{-10, -10}, {10, 10}}));  // inside rect
}

TEST(CircleTest, ContainsRectNeedsAllCorners) {
  const Circle circle{{0, 0}, 5.0};
  EXPECT_TRUE(circle.Contains(Rect{{-3, -3}, {3, 3}}));   // corners at r~4.24
  EXPECT_FALSE(circle.Contains(Rect{{-4, -4}, {4, 4}}));  // corners at r~5.66
}

TEST(CircleTest, BoundingBoxIsTight) {
  const Circle circle{{2, 3}, 1.5};
  EXPECT_EQ(circle.BoundingBox(), (Rect{{0.5, 1.5}, {3.5, 4.5}}));
}

TEST(QueryRangeTest, CircleDispatch) {
  const QueryRange range = QueryRange::MakeCircle({4, 6}, 3.0);
  ASSERT_TRUE(range.is_circle());
  EXPECT_FALSE(range.is_rect());
  // Paper Example 1: objects within the circle centered (4,6) radius 3.
  EXPECT_TRUE(range.Contains(Point{4, 6}));
  EXPECT_TRUE(range.Contains(Point{4, 9}));
  EXPECT_FALSE(range.Contains(Point{8, 6}));
  EXPECT_NEAR(range.Area(), M_PI * 9.0, 1e-12);
}

TEST(QueryRangeTest, RectDispatch) {
  const QueryRange range = QueryRange::MakeRect({0, 0}, {4, 2});
  ASSERT_TRUE(range.is_rect());
  EXPECT_TRUE(range.Contains(Point{4, 2}));
  EXPECT_FALSE(range.Contains(Point{4.1, 2}));
  EXPECT_DOUBLE_EQ(range.Area(), 8.0);
  EXPECT_TRUE(range.Contains(Rect{{1, 0.5}, {2, 1.5}}));
  EXPECT_FALSE(range.Contains(Rect{{1, 0.5}, {5, 1.5}}));
}

TEST(QueryRangeTest, DefaultIsEmptyRect) {
  const QueryRange range;
  EXPECT_TRUE(range.is_rect());
  EXPECT_FALSE(range.Contains(Point{0, 0}));
}

TEST(CircleRectAreaTest, RectFullyInsideCircle) {
  const Circle circle{{0, 0}, 10.0};
  const Rect rect{{-1, -1}, {1, 1}};
  EXPECT_NEAR(CircleRectIntersectionArea(circle, rect), 4.0, 1e-9);
}

TEST(CircleRectAreaTest, CircleFullyInsideRect) {
  const Circle circle{{0, 0}, 2.0};
  const Rect rect{{-5, -5}, {5, 5}};
  EXPECT_NEAR(CircleRectIntersectionArea(circle, rect), M_PI * 4.0, 1e-9);
}

TEST(CircleRectAreaTest, DisjointIsZero) {
  const Circle circle{{0, 0}, 1.0};
  EXPECT_DOUBLE_EQ(CircleRectIntersectionArea(circle, Rect{{5, 5}, {6, 6}}),
                   0.0);
  EXPECT_DOUBLE_EQ(CircleRectIntersectionArea(circle, Rect{{1.5, -1}, {2, 1}}),
                   0.0);
}

TEST(CircleRectAreaTest, HalfPlaneCut) {
  // Rect covering exactly the right half of the circle.
  const Circle circle{{0, 0}, 3.0};
  const Rect rect{{0, -10}, {10, 10}};
  EXPECT_NEAR(CircleRectIntersectionArea(circle, rect), M_PI * 9.0 / 2.0,
              1e-9);
}

TEST(CircleRectAreaTest, QuarterCut) {
  const Circle circle{{0, 0}, 2.0};
  const Rect rect{{0, 0}, {10, 10}};
  EXPECT_NEAR(CircleRectIntersectionArea(circle, rect), M_PI, 1e-9);
}

TEST(CircleRectAreaTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(
      CircleRectIntersectionArea(Circle{{0, 0}, 0.0}, Rect{{-1, -1}, {1, 1}}),
      0.0);
  EXPECT_DOUBLE_EQ(
      CircleRectIntersectionArea(Circle{{0, 0}, 1.0}, Rect::Empty()), 0.0);
}

TEST(CircleRectAreaTest, BandCrossingTheCircleFourTimes) {
  // Both horizontal edges cut the circle twice inside [min.x, max.x]: the
  // integration splits at all six abscissae (two ends, four crossings).
  const Circle circle{{0, 0}, 1.0};
  const Rect band{{-0.9, -0.5}, {0.9, 0.5}};
  constexpr int kSteps = 200000;
  const double dx = band.Width() / kSteps;
  double midpoint_sum = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const double x = band.min.x + (i + 0.5) * dx;
    const double c = std::sqrt(1.0 - x * x);
    midpoint_sum += (std::min(band.max.y, c) - std::max(band.min.y, -c)) * dx;
  }
  EXPECT_NEAR(CircleRectIntersectionArea(circle, band), midpoint_sum, 1e-8);
}

// Property: closed-form area matches Monte Carlo for random configurations.
TEST(CircleRectAreaTest, MatchesMonteCarlo) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const Circle circle{{rng.NextDouble(-5, 5), rng.NextDouble(-5, 5)},
                        rng.NextDouble(0.5, 4.0)};
    Rect rect;
    rect.min = {rng.NextDouble(-6, 4), rng.NextDouble(-6, 4)};
    rect.max = {rect.min.x + rng.NextDouble(0.5, 6.0),
                rect.min.y + rng.NextDouble(0.5, 6.0)};

    constexpr int kSamples = 200000;
    int inside = 0;
    for (int s = 0; s < kSamples; ++s) {
      const Point p{rng.NextDouble(rect.min.x, rect.max.x),
                    rng.NextDouble(rect.min.y, rect.max.y)};
      if (circle.Contains(p)) ++inside;
    }
    const double monte_carlo =
        rect.Area() * static_cast<double>(inside) / kSamples;
    const double exact = CircleRectIntersectionArea(circle, rect);
    EXPECT_NEAR(exact, monte_carlo, 0.05 * std::max(1.0, exact))
        << "trial " << trial;
  }
}

TEST(QueryRangeTest, IntersectionAreaDispatch) {
  const QueryRange circle = QueryRange::MakeCircle({0, 0}, 2.0);
  EXPECT_NEAR(circle.IntersectionArea(Rect{{-5, -5}, {5, 5}}), M_PI * 4.0,
              1e-9);
  const QueryRange rect = QueryRange::MakeRect({0, 0}, {4, 4});
  EXPECT_DOUBLE_EQ(rect.IntersectionArea(Rect{{2, 2}, {6, 6}}), 4.0);
  EXPECT_DOUBLE_EQ(rect.IntersectionArea(Rect{{5, 5}, {6, 6}}), 0.0);
}

TEST(ProjectionTest, OriginMapsToZero) {
  const Projection projection(40.0, 116.0);
  const Point p = projection.Forward(40.0, 116.0);
  EXPECT_NEAR(p.x, 0.0, 1e-12);
  EXPECT_NEAR(p.y, 0.0, 1e-12);
}

TEST(ProjectionTest, KnownDistances) {
  const Projection projection(40.0, 116.0);
  // One degree of latitude ~ 110.574 km.
  EXPECT_NEAR(projection.Forward(41.0, 116.0).y, 110.574, 1e-9);
  // One degree of longitude at 40N ~ 111.320 * cos(40 deg) ~ 85.28 km.
  EXPECT_NEAR(projection.Forward(40.0, 117.0).x, 85.276, 0.01);
}

TEST(ProjectionTest, RoundTrip) {
  const Projection projection(40.75, 116.35);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double lat = rng.NextDouble(39.5, 42.0);
    const double lon = rng.NextDouble(115.5, 117.2);
    const Point p = projection.Forward(lat, lon);
    double lat_back = 0.0;
    double lon_back = 0.0;
    projection.Inverse(p, &lat_back, &lon_back);
    EXPECT_NEAR(lat_back, lat, 1e-9);
    EXPECT_NEAR(lon_back, lon, 1e-9);
  }
}

TEST(ProjectionTest, PaperBeijingExtentIsRoughly145By276Km) {
  const Projection projection(39.5, 115.5);
  const Point far = projection.Forward(42.0, 117.2);
  EXPECT_NEAR(far.y, 276.4, 1.0);
  EXPECT_NEAR(far.x, 145.9, 1.5);
}

}  // namespace
}  // namespace fra
