#ifndef FRA_INDEX_EQUI_DEPTH_HISTOGRAM_H_
#define FRA_INDEX_EQUI_DEPTH_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "agg/spatial_object.h"
#include "geo/range.h"
#include "geo/rect.h"

namespace fra {

/// A 2-D equi-depth spatial histogram: recursive median splits (kd-tree
/// style, alternating on the wider axis) until every bucket holds roughly
/// n / max_buckets objects. Buckets carry tight bounding boxes and
/// aggregate summaries; queries estimate the contribution of a partially
/// covered bucket by the exact intersected-area fraction (uniformity
/// assumption within a bucket).
///
/// This is the substrate of the paper's OPTA baseline [23]: an optimal
/// histogram-based approximate range aggregator with provable guarantees
/// under per-bucket uniformity. Equi-depth median splits are the classic
/// construction with bounded per-bucket error.
///
/// The median-split tree is kept as a preorder node array, so Estimate
/// skips every subtree whose bounds miss the range instead of scanning
/// all buckets.
class EquiDepthHistogram {
 public:
  struct Options {
    /// Upper bound on the number of buckets.
    size_t max_buckets = 1024;
  };

  struct Bucket {
    Rect bounds;  // tight bbox of the bucket's objects
    AggregateSummary summary;
  };

  EquiDepthHistogram() = default;

  /// Builds the histogram over a copy-by-move of `objects`.
  static EquiDepthHistogram Build(ObjectSet objects, const Options& options);
  static EquiDepthHistogram Build(ObjectSet objects) {
    return Build(std::move(objects), Options());
  }

  /// Area-interpolated estimate of the aggregate summary within `range`.
  /// min/max fields of the result are not populated. Buckets are summed
  /// in buckets() order, so the result equals a linear scan bit for bit.
  AggregateSummary Estimate(const QueryRange& range) const;

  const std::vector<Bucket>& buckets() const { return buckets_; }
  const AggregateSummary& total() const { return total_; }
  size_t MemoryUsage() const;

 private:
  // One node of the median-split tree, in the preorder Build pops spans
  // (right half first). Node i's subtree is nodes_[i, end); its leaves
  // are a contiguous run of buckets_, in the same order.
  struct Node {
    Rect bounds;  // tight bbox of the subtree's objects
    uint32_t end = 0;
    uint32_t bucket = kInternal;  // leaf: index into buckets_
  };
  static constexpr uint32_t kInternal = UINT32_MAX;

  std::vector<Bucket> buckets_;
  std::vector<Node> nodes_;
  AggregateSummary total_;
};

}  // namespace fra

#endif  // FRA_INDEX_EQUI_DEPTH_HISTOGRAM_H_
