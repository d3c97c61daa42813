// Micro-benchmarks (google-benchmark) backing the paper's complexity
// analyses: R-tree build & range aggregation, grid prefix-sum queries,
// LSR-Forest per-level query cost, the OPTA histogram estimate and one
// silo's NonIID-est boundary-cell vector.

#include <benchmark/benchmark.h>

#include "core/lsr_forest.h"
#include "federation/silo.h"
#include "index/equi_depth_histogram.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "util/random.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {145, 276}};

ObjectSet MakeObjects(size_t n) {
  Rng rng(42);
  ObjectSet objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    objects.push_back({{rng.NextDouble(kDomain.min.x, kDomain.max.x),
                        rng.NextDouble(kDomain.min.y, kDomain.max.y)},
                       static_cast<double>(rng.NextInt64(0, 4))});
  }
  return objects;
}

std::vector<QueryRange> MakeQueries(size_t n, double radius) {
  Rng rng(7);
  std::vector<QueryRange> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(QueryRange::MakeCircle(
        {rng.NextDouble(kDomain.min.x, kDomain.max.x),
         rng.NextDouble(kDomain.min.y, kDomain.max.y)},
        radius));
  }
  return queries;
}

void BM_RTreeBuild(benchmark::State& state) {
  const ObjectSet objects = MakeObjects(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RTree tree = RTree::Build(objects);
    benchmark::DoNotOptimize(tree.total().count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBuild)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_RTreeRangeAggregate(benchmark::State& state) {
  const RTree tree =
      RTree::Build(MakeObjects(static_cast<size_t>(state.range(0))));
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.RangeAggregate(queries[i++ % queries.size()]).count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeRangeAggregate)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

void BM_GridIntersectingAggregate(benchmark::State& state) {
  GridIndex::GridSpec spec;
  spec.domain = kDomain;
  spec.cell_length = 1.5;
  const GridIndex grid =
      GridIndex::Build(MakeObjects(static_cast<size_t>(state.range(0))), spec)
          .ValueOrDie();
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.IntersectingCellsAggregate(queries[i++ % queries.size()]).count);
  }
}
BENCHMARK(BM_GridIntersectingAggregate)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_GridNaiveAggregate(benchmark::State& state) {
  GridIndex::GridSpec spec;
  spec.domain = kDomain;
  spec.cell_length = 1.5;
  const GridIndex grid =
      GridIndex::Build(MakeObjects(static_cast<size_t>(state.range(0))), spec)
          .ValueOrDie();
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.IntersectingCellsAggregateNaive(queries[i++ % queries.size()])
            .count);
  }
}
BENCHMARK(BM_GridNaiveAggregate)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_LsrForestQueryAtLevel(benchmark::State& state) {
  static const LsrForest* forest = [] {
    return new LsrForest(LsrForest::Build(MakeObjects(1000000)));
  }();
  const int level = static_cast<int>(state.range(0));
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        forest->AggregateAtLevel(queries[i++ % queries.size()], level)
            .count);
  }
}
BENCHMARK(BM_LsrForestQueryAtLevel)->DenseRange(0, 12, 3)
    ->Unit(benchmark::kMicrosecond);

void BM_HistogramEstimate(benchmark::State& state) {
  const EquiDepthHistogram hist =
      EquiDepthHistogram::Build(MakeObjects(1000000));
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hist.Estimate(queries[i++ % queries.size()]).count);
  }
}
BENCHMARK(BM_HistogramEstimate)->Unit(benchmark::kMicrosecond);

// One silo's NonIID-est boundary-cell vector from T_0: L = 1.5 km cells,
// r = 2 km circles.
void BM_BoundaryCellVector(benchmark::State& state) {
  Silo::Options options;
  options.grid_spec.domain = kDomain;
  options.grid_spec.cell_length = 1.5;
  options.build_histogram = false;
  const auto silo =
      Silo::Create(0, MakeObjects(static_cast<size_t>(state.range(0))), options)
          .ValueOrDie();
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  size_t cells = 0;
  for (auto _ : state) {
    const std::vector<CellContribution> contributions =
        silo->BoundaryCellContributions(queries[i++ % queries.size()],
                                        /*use_lsr=*/false, 0.1, 0.01, 0.0);
    benchmark::DoNotOptimize(contributions.data());
    cells += contributions.size();
  }
  state.counters["cells_per_call"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BoundaryCellVector)->Arg(125000)->Arg(250000)
    ->Unit(benchmark::kMicrosecond);

void BM_LsrForestBuild(benchmark::State& state) {
  const ObjectSet objects = MakeObjects(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    LsrForest forest = LsrForest::Build(objects);
    benchmark::DoNotOptimize(forest.num_levels());
  }
}
BENCHMARK(BM_LsrForestBuild)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fra

BENCHMARK_MAIN();
