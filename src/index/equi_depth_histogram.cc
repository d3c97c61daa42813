#include "index/equi_depth_histogram.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace fra {
namespace {

struct Span {
  size_t begin;
  size_t end;  // exclusive
};

EquiDepthHistogram::Bucket MakeBucket(const ObjectSet& objects,
                                      const Span& span) {
  EquiDepthHistogram::Bucket bucket;
  bucket.bounds = Rect::Empty();
  for (size_t i = span.begin; i < span.end; ++i) {
    bucket.bounds.ExpandToInclude(objects[i].location);
    bucket.summary.Add(objects[i]);
  }
  return bucket;
}

}  // namespace

EquiDepthHistogram EquiDepthHistogram::Build(ObjectSet objects,
                                             const Options& options) {
  FRA_CHECK_GT(options.max_buckets, 0UL);
  EquiDepthHistogram hist;
  if (objects.empty()) return hist;

  const size_t target =
      std::max<size_t>(1, (objects.size() + options.max_buckets - 1) /
                              options.max_buckets);

  std::vector<Span> stack = {{0, objects.size()}};
  while (!stack.empty()) {
    const Span span = stack.back();
    stack.pop_back();
    const size_t n = span.end - span.begin;
    Node node;
    if (n <= target) {
      node.bucket = static_cast<uint32_t>(hist.buckets_.size());
      hist.buckets_.push_back(MakeBucket(objects, span));
      node.bounds = hist.buckets_.back().bounds;
      hist.nodes_.push_back(node);
      continue;
    }
    // Median split along the wider axis of the span's bbox (equi-depth:
    // both halves hold the same number of objects).
    node.bounds = Rect::Empty();
    for (size_t i = span.begin; i < span.end; ++i) {
      node.bounds.ExpandToInclude(objects[i].location);
    }
    hist.nodes_.push_back(node);
    const bool split_x = node.bounds.Width() >= node.bounds.Height();
    const size_t mid = span.begin + n / 2;
    std::nth_element(objects.begin() + span.begin, objects.begin() + mid,
                     objects.begin() + span.end,
                     [split_x](const SpatialObject& a, const SpatialObject& b) {
                       return split_x ? a.location.x < b.location.x
                                      : a.location.y < b.location.y;
                     });
    stack.push_back({span.begin, mid});
    stack.push_back({mid, span.end});
  }

  // Subtree ends, children before parents: an internal node's first child
  // follows it, and its second child follows the first child's subtree.
  for (size_t i = hist.nodes_.size(); i-- > 0;) {
    Node& node = hist.nodes_[i];
    node.end = node.bucket != kInternal
                   ? static_cast<uint32_t>(i + 1)
                   : hist.nodes_[hist.nodes_[i + 1].end].end;
  }

  for (const Bucket& b : hist.buckets_) hist.total_.Merge(b.summary);
  return hist;
}

AggregateSummary EquiDepthHistogram::Estimate(const QueryRange& range) const {
  AggregateSummary acc;
  for (uint32_t i = 0; i < nodes_.size();) {
    const Node& node = nodes_[i];
    // A bucket's bounds lie inside its ancestors', so a pruned subtree
    // holds only buckets a linear scan would skip as well.
    if (!range.Intersects(node.bounds)) {
      i = node.end;
      continue;
    }
    ++i;
    if (node.bucket == kInternal) continue;
    const Bucket& bucket = buckets_[node.bucket];
    if (range.Contains(bucket.bounds)) {
      acc.count += bucket.summary.count;
      acc.sum += bucket.summary.sum;
      acc.sum_sqr += bucket.summary.sum_sqr;
      continue;
    }
    const double area = bucket.bounds.Area();
    double fraction;
    if (area <= 0.0) {
      // Degenerate bucket (collinear or identical points): treat it as a
      // point mass at its bbox center.
      fraction = range.Contains(bucket.bounds.Center()) ? 1.0 : 0.0;
    } else {
      fraction = std::clamp(range.IntersectionArea(bucket.bounds) / area, 0.0,
                            1.0);
    }
    if (fraction <= 0.0) continue;
    acc.count += static_cast<uint64_t>(
        std::llround(static_cast<double>(bucket.summary.count) * fraction));
    acc.sum += bucket.summary.sum * fraction;
    acc.sum_sqr += bucket.summary.sum_sqr * fraction;
  }
  return acc;
}

size_t EquiDepthHistogram::MemoryUsage() const {
  return buckets_.capacity() * sizeof(Bucket) +
         nodes_.capacity() * sizeof(Node);
}

}  // namespace fra
