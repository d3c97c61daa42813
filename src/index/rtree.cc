#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace fra {
namespace {

// Orders indices [0, n) into STR (Sort-Tile-Recursive) tile order for the
// given center points and chunk size: sort by x, cut into ~sqrt(n/chunk)
// vertical slices, sort each slice by y. Consecutive runs of `chunk`
// indices then form spatially compact tiles.
std::vector<uint32_t> StrOrder(const std::vector<Point>& centers,
                               size_t chunk) {
  const size_t n = centers.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n <= chunk) return order;

  const size_t num_tiles = (n + chunk - 1) / chunk;
  const size_t num_slices =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_tiles))));
  const size_t slice_size = ((num_tiles + num_slices - 1) / num_slices) * chunk;

  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return centers[a].x < centers[b].x;
  });
  for (size_t begin = 0; begin < n; begin += slice_size) {
    const size_t end = std::min(n, begin + slice_size);
    std::sort(order.begin() + begin, order.begin() + end,
              [&](uint32_t a, uint32_t b) { return centers[a].y < centers[b].y; });
  }
  return order;
}

}  // namespace

RTree RTree::Build(ObjectSet objects, const Options& options) {
  FRA_CHECK_GT(options.leaf_capacity, 0);
  FRA_CHECK_GT(options.fanout, 1);

  RTree tree;
  if (objects.empty()) return tree;

  // Leaf level: STR-order the objects, then pack consecutive runs.
  {
    std::vector<Point> centers(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      centers[i] = objects[i].location;
    }
    const std::vector<uint32_t> order =
        StrOrder(centers, static_cast<size_t>(options.leaf_capacity));
    ObjectSet sorted;
    sorted.reserve(objects.size());
    for (uint32_t idx : order) sorted.push_back(objects[idx]);
    tree.objects_ = std::move(sorted);
  }

  const size_t n = tree.objects_.size();
  const size_t leaf_cap = static_cast<size_t>(options.leaf_capacity);
  std::vector<Node> current;
  current.reserve((n + leaf_cap - 1) / leaf_cap);
  for (size_t begin = 0; begin < n; begin += leaf_cap) {
    const size_t end = std::min(n, begin + leaf_cap);
    Node leaf;
    leaf.level = 0;
    leaf.begin = static_cast<uint32_t>(begin);
    leaf.end = static_cast<uint32_t>(end);
    leaf.mbr = Rect::Empty();
    for (size_t i = begin; i < end; ++i) {
      leaf.mbr.ExpandToInclude(tree.objects_[i].location);
      leaf.summary.Add(tree.objects_[i]);
    }
    current.push_back(leaf);
  }

  // Upper levels: STR-order the nodes of the finished level, append them to
  // the node array (so parents can reference a contiguous range), and pack
  // groups of `fanout` under new parents.
  const size_t fanout = static_cast<size_t>(options.fanout);
  uint32_t level = 0;
  while (true) {
    if (current.size() > 1) {
      std::vector<Point> centers(current.size());
      for (size_t i = 0; i < current.size(); ++i) {
        centers[i] = current[i].mbr.Center();
      }
      const std::vector<uint32_t> order = StrOrder(centers, fanout);
      std::vector<Node> reordered;
      reordered.reserve(current.size());
      for (uint32_t idx : order) reordered.push_back(current[idx]);
      current = std::move(reordered);
    }

    const uint32_t base = static_cast<uint32_t>(tree.nodes_.size());
    tree.nodes_.insert(tree.nodes_.end(), current.begin(), current.end());
    ++level;
    if (current.size() == 1) break;

    std::vector<Node> parents;
    parents.reserve((current.size() + fanout - 1) / fanout);
    for (size_t begin = 0; begin < current.size(); begin += fanout) {
      const size_t end = std::min(current.size(), begin + fanout);
      Node parent;
      parent.level = level;
      parent.begin = base + static_cast<uint32_t>(begin);
      parent.end = base + static_cast<uint32_t>(end);
      parent.mbr = Rect::Empty();
      for (size_t i = begin; i < end; ++i) {
        parent.mbr.ExpandToInclude(current[i].mbr);
        parent.summary.Merge(current[i].summary);
      }
      parents.push_back(parent);
    }
    current = std::move(parents);
  }

  tree.root_ = static_cast<uint32_t>(tree.nodes_.size()) - 1;
  tree.height_ = static_cast<int>(level);
  tree.total_ = tree.nodes_[tree.root_].summary;
  return tree;
}

AggregateSummary RTree::RangeAggregate(const QueryRange& range,
                                       QueryStats* stats) const {
  AggregateSummary acc;
  if (!nodes_.empty()) AggregateNode(root_, range, &acc, stats);
  return acc;
}

void RTree::AggregateNode(uint32_t node_index, const QueryRange& range,
                          AggregateSummary* acc, QueryStats* stats) const {
  const Node& node = nodes_[node_index];
  if (stats != nullptr) ++stats->nodes_visited;
  if (!range.Intersects(node.mbr)) return;
  if (range.Contains(node.mbr)) {
    acc->Merge(node.summary);
    if (stats != nullptr) ++stats->subtrees_taken;
    return;
  }
  if (node.level == 0) {
    for (uint32_t i = node.begin; i < node.end; ++i) {
      if (stats != nullptr) ++stats->objects_tested;
      if (range.Contains(objects_[i].location)) acc->Add(objects_[i]);
    }
    return;
  }
  for (uint32_t child = node.begin; child < node.end; ++child) {
    AggregateNode(child, range, acc, stats);
  }
}

AggregateSummary RTree::RangeAggregateClipped(const Rect& clip,
                                              const QueryRange& range,
                                              QueryStats* stats) const {
  AggregateSummary acc;
  if (!nodes_.empty()) AggregateNodeClipped(root_, clip, range, &acc, stats);
  return acc;
}

void RTree::AggregateNodeClipped(uint32_t node_index, const Rect& clip,
                                 const QueryRange& range,
                                 AggregateSummary* acc,
                                 QueryStats* stats) const {
  const Node& node = nodes_[node_index];
  if (stats != nullptr) ++stats->nodes_visited;
  if (!clip.Intersects(node.mbr) || !range.Intersects(node.mbr)) return;
  if (clip.Contains(node.mbr) && range.Contains(node.mbr)) {
    acc->Merge(node.summary);
    if (stats != nullptr) ++stats->subtrees_taken;
    return;
  }
  if (node.level == 0) {
    for (uint32_t i = node.begin; i < node.end; ++i) {
      if (stats != nullptr) ++stats->objects_tested;
      const Point& p = objects_[i].location;
      if (clip.Contains(p) && range.Contains(p)) acc->Add(objects_[i]);
    }
    return;
  }
  for (uint32_t child = node.begin; child < node.end; ++child) {
    AggregateNodeClipped(child, clip, range, acc, stats);
  }
}

std::vector<AggregateSummary> RTree::RangeAggregateCells(
    const std::vector<Rect>& cells, const QueryRange& range) const {
  std::vector<AggregateSummary> acc(cells.size());
  if (nodes_.empty() || cells.empty()) return acc;
  std::vector<uint32_t> open(cells.size());
  std::iota(open.begin(), open.end(), 0U);
  // A root-to-leaf path holds at most height_ + 1 open lists.
  open.reserve(cells.size() * (static_cast<size_t>(height_) + 1));
  AggregateNodeCells(root_, cells, range, &open, 0, cells.size(), acc.data());
  return acc;
}

void RTree::AggregateNodeCells(uint32_t node_index,
                               const std::vector<Rect>& cells,
                               const QueryRange& range,
                               std::vector<uint32_t>* open, size_t begin,
                               size_t end, AggregateSummary* acc) const {
  const Node& node = nodes_[node_index];
  if (!range.Intersects(node.mbr)) return;
  const bool range_covers = range.Contains(node.mbr);
  // Same per-cell decisions, in the same DFS order, as
  // AggregateNodeClipped — which keeps every cell's sum bit-identical.
  const size_t child_begin = open->size();
  for (size_t k = begin; k < end; ++k) {
    const uint32_t c = (*open)[k];
    if (!cells[c].Intersects(node.mbr)) continue;
    if (range_covers && cells[c].Contains(node.mbr)) {
      acc[c].Merge(node.summary);
      continue;
    }
    open->push_back(c);
  }
  const size_t child_end = open->size();
  if (child_begin == child_end) return;
  if (node.level == 0) {
    for (uint32_t i = node.begin; i < node.end; ++i) {
      const Point& p = objects_[i].location;
      if (!range.Contains(p)) continue;
      for (size_t k = child_begin; k < child_end; ++k) {
        const uint32_t c = (*open)[k];
        if (cells[c].Contains(p)) acc[c].Add(objects_[i]);
      }
    }
  } else {
    for (uint32_t child = node.begin; child < node.end; ++child) {
      AggregateNodeCells(child, cells, range, open, child_begin, child_end,
                         acc);
    }
  }
  open->resize(child_begin);
}

void RTree::CollectInRange(const QueryRange& range,
                           std::vector<SpatialObject>* out) const {
  if (!nodes_.empty()) CollectNode(root_, range, out);
}

void RTree::CollectNode(uint32_t node_index, const QueryRange& range,
                        std::vector<SpatialObject>* out) const {
  const Node& node = nodes_[node_index];
  if (!range.Intersects(node.mbr)) return;
  if (node.level == 0) {
    for (uint32_t i = node.begin; i < node.end; ++i) {
      if (range.Contains(objects_[i].location)) out->push_back(objects_[i]);
    }
    return;
  }
  if (range.Contains(node.mbr)) {
    // Whole subtree inside: leaves of a packed tree occupy a contiguous
    // object range, but intermediate levels do not expose it directly, so
    // walk down; each visited node is fully covered (cheap, no tests).
    for (uint32_t child = node.begin; child < node.end; ++child) {
      CollectNode(child, range, out);
    }
    return;
  }
  for (uint32_t child = node.begin; child < node.end; ++child) {
    CollectNode(child, range, out);
  }
}

Rect RTree::bounds() const {
  if (nodes_.empty()) return Rect::Empty();
  return nodes_[root_].mbr;
}

size_t RTree::MemoryUsage() const {
  return objects_.capacity() * sizeof(SpatialObject) +
         nodes_.capacity() * sizeof(Node);
}

}  // namespace fra
