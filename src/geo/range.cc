#include "geo/range.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace fra {
namespace {

// Antiderivative of sqrt(r^2 - x^2): the area under the upper half-circle.
double HalfCircleIntegral(double r, double x) {
  const double cx = std::clamp(x, -r, r);
  const double root = std::sqrt(std::max(0.0, r * r - cx * cx));
  return 0.5 * (cx * root + r * r * std::asin(std::clamp(cx / r, -1.0, 1.0)));
}

}  // namespace

double CircleRectIntersectionArea(const Circle& circle, const Rect& rect) {
  const double r = circle.radius;
  if (r <= 0.0 || !rect.IsValid()) return 0.0;

  // Translate so the circle is centered at the origin.
  const double x0 = rect.min.x - circle.center.x;
  const double x1 = rect.max.x - circle.center.x;
  const double y0 = rect.min.y - circle.center.y;
  const double y1 = rect.max.y - circle.center.y;

  const double xa = std::max(x0, -r);
  const double xb = std::min(x1, r);
  if (xa >= xb || y0 >= r || y1 <= -r) return 0.0;

  // Within [xa, xb] the vertical slice of the intersection is
  //   [max(y0, -c(x)), min(y1, c(x))] with c(x) = sqrt(r^2 - x^2).
  // The active branch of min/max only changes where c(x) crosses y0 / y1,
  // so split at those abscissae and integrate each piece in closed form.
  // At most six abscissae: the two ends plus two crossings per edge.
  std::array<double, 6> cuts = {xa, xb};
  size_t num_cuts = 2;
  for (double y : {y0, y1}) {
    if (std::abs(y) < r) {
      const double xc = std::sqrt(r * r - y * y);
      if (xc > xa && xc < xb) cuts[num_cuts++] = xc;
      if (-xc > xa && -xc < xb) cuts[num_cuts++] = -xc;
    }
  }
  // Insertion sort: the order std::sort gives at this size, without the
  // false -Warray-bounds GCC 12 reports for std::sort on a short array.
  for (size_t i = 1; i < num_cuts; ++i) {
    const double x = cuts[i];
    size_t j = i;
    for (; j > 0 && x < cuts[j - 1]; --j) cuts[j] = cuts[j - 1];
    cuts[j] = x;
  }

  double area = 0.0;
  for (size_t i = 0; i + 1 < num_cuts; ++i) {
    const double a = cuts[i];
    const double b = cuts[i + 1];
    if (b - a <= 0.0) continue;
    const double xm = 0.5 * (a + b);
    const double cm = std::sqrt(std::max(0.0, r * r - xm * xm));
    const double top_m = std::min(y1, cm);
    const double bottom_m = std::max(y0, -cm);
    if (top_m <= bottom_m) continue;

    // Integrate the top boundary.
    double top_integral;
    if (cm < y1) {
      top_integral = HalfCircleIntegral(r, b) - HalfCircleIntegral(r, a);
    } else {
      top_integral = y1 * (b - a);
    }
    // Integrate the bottom boundary.
    double bottom_integral;
    if (-cm > y0) {
      bottom_integral = -(HalfCircleIntegral(r, b) - HalfCircleIntegral(r, a));
    } else {
      bottom_integral = y0 * (b - a);
    }
    area += top_integral - bottom_integral;
  }
  return std::max(0.0, area);
}

double QueryRange::Area() const {
  if (is_circle()) {
    const double r = circle().radius;
    return M_PI * r * r;
  }
  return rect().Area();
}

double QueryRange::IntersectionArea(const Rect& r) const {
  if (is_circle()) return CircleRectIntersectionArea(circle(), r);
  return Intersection(rect(), r).Area();
}

}  // namespace fra
