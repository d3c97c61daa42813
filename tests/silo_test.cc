#include "federation/silo.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_util.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {50, 50}};

Silo::Options DefaultOptions() {
  Silo::Options options;
  options.grid_spec.domain = kDomain;
  options.grid_spec.cell_length = 2.0;
  return options;
}

std::unique_ptr<Silo> MakeSilo(const ObjectSet& objects,
                               Silo::Options options) {
  return Silo::Create(0, objects, options).ValueOrDie();
}

TEST(SiloTest, ExactAggregateMatchesBruteForce) {
  const ObjectSet objects = testing::ClusteredObjects(3000, kDomain, 3, 1);
  const auto silo = MakeSilo(objects, DefaultOptions());
  EXPECT_EQ(silo->size(), objects.size());

  Rng rng(2);
  for (int q = 0; q < 30; ++q) {
    const QueryRange range =
        testing::RandomRange(kDomain, 10.0, q % 2 == 0, &rng);
    const AggregateSummary expected = SummarizeIf(
        objects, [&](const Point& p) { return range.Contains(p); });
    EXPECT_EQ(silo->ExactRangeAggregate(range).count, expected.count);
    EXPECT_NEAR(silo->ExactRangeAggregate(range).sum, expected.sum, 1e-9);
  }
}

TEST(SiloTest, GridTotalsMatchPartition) {
  const ObjectSet objects = testing::RandomObjects(1000, kDomain, 3);
  const auto silo = MakeSilo(objects, DefaultOptions());
  EXPECT_EQ(silo->grid().total().count, 1000UL);
  EXPECT_EQ(silo->total().count, 1000UL);
}

TEST(SiloTest, LsrAggregateApproximatesExact) {
  const ObjectSet objects = testing::RandomObjects(50000, kDomain, 4);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 10);
  const AggregateSummary exact = silo->ExactRangeAggregate(range);
  ASSERT_GT(exact.count, 1000UL);

  int level = -1;
  const AggregateSummary approx = silo->LsrRangeAggregate(
      range, 0.1, 0.01, static_cast<double>(exact.count), &level);
  EXPECT_GT(level, 0);
  const double error = std::abs(static_cast<double>(approx.count) -
                                static_cast<double>(exact.count)) /
                       static_cast<double>(exact.count);
  EXPECT_LT(error, 0.25);
}

TEST(SiloTest, LsrFallsBackToExactWhenDisabled) {
  Silo::Options options = DefaultOptions();
  options.build_lsr = false;
  const ObjectSet objects = testing::RandomObjects(5000, kDomain, 5);
  const auto silo = MakeSilo(objects, options);
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 10);
  // Forest has a single level; any epsilon yields the exact answer.
  EXPECT_EQ(silo->LsrRangeAggregate(range, 0.25, 0.05, 1e9).count,
            silo->ExactRangeAggregate(range).count);
}

TEST(SiloTest, HistogramEstimateAvailableByDefault) {
  const ObjectSet objects = testing::RandomObjects(20000, kDomain, 6);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 15);
  const AggregateSummary exact = silo->ExactRangeAggregate(range);
  const AggregateSummary estimate =
      silo->HistogramEstimate(range).ValueOrDie();
  const double error = std::abs(static_cast<double>(estimate.count) -
                                static_cast<double>(exact.count)) /
                       static_cast<double>(exact.count);
  EXPECT_LT(error, 0.3);
}

TEST(SiloTest, HistogramUnavailableWhenDisabled) {
  Silo::Options options = DefaultOptions();
  options.build_histogram = false;
  const auto silo = MakeSilo(testing::RandomObjects(100, kDomain, 7), options);
  EXPECT_TRUE(silo->HistogramEstimate(QueryRange::MakeCircle({0, 0}, 1))
                  .status()
                  .IsUnavailable());
}

TEST(SiloTest, BoundaryCellContributionsCoverOnlyPartialCells) {
  const ObjectSet objects = testing::RandomObjects(10000, kDomain, 8);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 8);

  const std::vector<CellContribution> contributions =
      silo->BoundaryCellContributions(range, false, 0.1, 0.01, 0.0);
  ASSERT_FALSE(contributions.empty());

  const GridIndex& grid = silo->grid();
  // The reported cells are exactly the kPartial cells in enumeration order.
  std::vector<uint32_t> expected_ids;
  grid.ForEachIntersectingCell(range, [&](size_t id, CellRelation relation) {
    if (relation == CellRelation::kPartial) {
      expected_ids.push_back(static_cast<uint32_t>(id));
    }
  });
  ASSERT_EQ(contributions.size(), expected_ids.size());
  for (size_t i = 0; i < contributions.size(); ++i) {
    EXPECT_EQ(contributions[i].cell_id, expected_ids[i]);
    // Each contribution aggregates this silo's objects in cell ∩ range.
    const Rect cell_rect = grid.CellRect(grid.RowOf(expected_ids[i]),
                                         grid.ColOf(expected_ids[i]));
    const AggregateSummary expected = SummarizeIf(
        objects, [&](const Point& p) {
          return cell_rect.Contains(p) && range.Contains(p);
        });
    EXPECT_EQ(contributions[i].summary.count, expected.count) << "cell " << i;
  }
}

TEST(SiloTest, BoundaryPlusInteriorEqualsExact) {
  const ObjectSet objects = testing::RandomObjects(20000, kDomain, 9);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({20, 30}, 9);

  AggregateSummary interior;
  silo->grid().ForEachIntersectingCell(
      range, [&](size_t id, CellRelation relation) {
        if (relation == CellRelation::kContained) {
          interior.Merge(silo->grid().cell(id));
        }
      });
  AggregateSummary boundary;
  for (const CellContribution& c :
       silo->BoundaryCellContributions(range, false, 0.1, 0.01, 0.0)) {
    boundary.Merge(c.summary);
  }
  const AggregateSummary exact = silo->ExactRangeAggregate(range);
  EXPECT_EQ(interior.count + boundary.count, exact.count);
  EXPECT_NEAR(interior.sum + boundary.sum, exact.sum, 1e-9);
}

// What the one-pass cell vector must reproduce bit for bit: one clipped
// descent of T_level per boundary cell, rescaled by 2^level, then the
// ingest delta scanned once per cell.
std::vector<CellContribution> PerCellReference(
    const GridIndex& grid, const LsrForest& forest, int level,
    const ObjectSet& delta, const QueryRange& range, bool full_vector) {
  std::vector<CellContribution> out;
  grid.ForEachIntersectingCell(range, [&](size_t id, CellRelation relation) {
    CellContribution contribution;
    contribution.cell_id = static_cast<uint32_t>(id);
    if (relation == CellRelation::kContained) {
      if (!full_vector) return;
      contribution.summary = grid.cell(id);
    } else {
      const Rect cell = grid.CellRect(grid.RowOf(id), grid.ColOf(id));
      contribution.summary =
          forest.tree(level).RangeAggregateClipped(cell, range);
      if (level > 0) {
        contribution.summary =
            contribution.summary.Scaled(std::ldexp(1.0, level));
      }
      if (!delta.empty()) {
        contribution.summary.Merge(SummarizeIf(delta, [&](const Point& p) {
          return cell.Contains(p) && range.Contains(p);
        }));
      }
    }
    out.push_back(contribution);
  });
  return out;
}

TEST(SiloTest, CellVectorMatchesPerCellReferenceBitForBit) {
  ObjectSet base = testing::RandomObjects(30000, kDomain, 16);
  testing::FractionalMeasures(&base, 17);
  const ObjectSet base_lines = testing::GridLineObjects(kDomain, 2.0, 18);
  base.insert(base.end(), base_lines.begin(), base_lines.end());
  Silo::Options options = DefaultOptions();
  options.compact_fraction = 0.0;  // keep the ingest delta uncompacted
  const auto silo = MakeSilo(base, options);

  ObjectSet delta = testing::RandomObjects(400, kDomain, 19);
  testing::FractionalMeasures(&delta, 20);
  const ObjectSet delta_lines = testing::GridLineObjects(kDomain, 2.0, 21);
  delta.insert(delta.end(), delta_lines.begin(), delta_lines.end());
  silo->Ingest(delta);
  ASSERT_EQ(silo->pending_ingest(), delta.size());

  // The silo's own forest, rebuilt from the same objects and seed (id 0).
  LsrForest::Options lsr_options;
  lsr_options.rtree = options.rtree;
  lsr_options.seed = options.lsr_seed;
  const LsrForest forest = LsrForest::Build(base, lsr_options);

  Rng rng(22);
  int lsr_levels_above_zero = 0;
  for (int q = 0; q < 40; ++q) {
    const QueryRange range =
        testing::RandomRange(kDomain, 12.0, q % 2 == 0, &rng);
    const double epsilon = 0.3;
    const double delta_prob = 0.05;
    const double sum0 = q % 4 < 2 ? 1e4 : 50.0;
    const int level =
        LsrForest::SelectLevel(epsilon, delta_prob, sum0, forest.max_level());
    lsr_levels_above_zero += level > 0;
    for (const bool use_lsr : {false, true}) {
      for (const bool full_vector : {false, true}) {
        const std::vector<CellContribution> actual =
            full_vector ? silo->AllCellContributions(range, use_lsr, epsilon,
                                                     delta_prob, sum0)
                        : silo->BoundaryCellContributions(
                              range, use_lsr, epsilon, delta_prob, sum0);
        const std::vector<CellContribution> expected =
            PerCellReference(silo->grid(), forest, use_lsr ? level : 0,
                             delta, range, full_vector);
        ASSERT_EQ(actual.size(), expected.size());
        for (size_t i = 0; i < actual.size(); ++i) {
          EXPECT_EQ(actual[i].cell_id, expected[i].cell_id);
          EXPECT_TRUE(testing::SameBits(actual[i].summary, expected[i].summary))
              << "query " << q << " lsr " << use_lsr << " full "
              << full_vector << " cell " << i;
        }
      }
    }
  }
  EXPECT_GT(lsr_levels_above_zero, 0);
}

TEST(SiloTest, EmptySiloAnswersEmptyCellVectors) {
  Silo::Options options = DefaultOptions();
  options.compact_fraction = 0.0;  // keep the ingest below uncompacted
  const auto silo = MakeSilo({}, options);
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 5);
  for (const bool use_lsr : {false, true}) {
    const std::vector<CellContribution> cells =
        silo->BoundaryCellContributions(range, use_lsr, 0.1, 0.01, 1e4);
    ASSERT_FALSE(cells.empty());
    for (const CellContribution& cell : cells) {
      EXPECT_TRUE(cell.summary.empty());
    }
    CellVectorRequest request;
    request.range = range;
    request.mode = use_lsr ? LocalQueryMode::kLsr : LocalQueryMode::kExact;
    const auto response = silo->HandleMessage(request.Encode()).ValueOrDie();
    EXPECT_EQ(DecodeCellVectorResponse(response).ValueOrDie().size(),
              cells.size());
  }

  // Objects ingested into the empty silo are answered from the delta.
  silo->Ingest({{{25.5, 29.5}, 3.0}});
  ASSERT_EQ(silo->pending_ingest(), 1U);
  for (const bool use_lsr : {false, true}) {
    AggregateSummary total;
    for (const CellContribution& cell :
         silo->BoundaryCellContributions(range, use_lsr, 0.1, 0.01, 1e4)) {
      total.Merge(cell.summary);
    }
    EXPECT_EQ(total.count, 1U);
    EXPECT_EQ(total.sum, 3.0);
  }
}

TEST(SiloTest, HandleMessageGridRequest) {
  const ObjectSet objects = testing::RandomObjects(500, kDomain, 10);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const auto response =
      silo->HandleMessage(EncodeBuildGridRequest()).ValueOrDie();
  const std::vector<uint8_t> grid_bytes =
      DecodeGridPayloadResponse(response).ValueOrDie();
  BinaryReader reader(grid_bytes);
  GridIndex grid;
  ASSERT_TRUE(GridIndex::Deserialize(&reader, &grid).ok());
  EXPECT_EQ(grid.total().count, 500UL);
}

TEST(SiloTest, HandleMessageAggregateRequest) {
  const ObjectSet objects = testing::RandomObjects(2000, kDomain, 11);
  const auto silo = MakeSilo(objects, DefaultOptions());
  AggregateRequest request;
  request.range = QueryRange::MakeCircle({25, 25}, 10);
  request.mode = LocalQueryMode::kExact;
  const auto response = silo->HandleMessage(request.Encode()).ValueOrDie();
  const AggregateSummary summary =
      DecodeSummaryResponse(response).ValueOrDie();
  EXPECT_EQ(summary.count, silo->ExactRangeAggregate(request.range).count);
}

TEST(SiloTest, HandleMessageMalformedRequestYieldsErrorResponse) {
  const auto silo =
      MakeSilo(testing::RandomObjects(10, kDomain, 12), DefaultOptions());
  // Valid type tag but truncated body.
  std::vector<uint8_t> malformed = {
      static_cast<uint8_t>(MessageType::kAggregateRequest), 0};
  const auto response = silo->HandleMessage(malformed).ValueOrDie();
  EXPECT_FALSE(DecodeSummaryResponse(response).ok());
}

TEST(SiloTest, HandleMessageUnknownTypeYieldsErrorResponse) {
  const auto silo =
      MakeSilo(testing::RandomObjects(10, kDomain, 13), DefaultOptions());
  const auto response =
      silo->HandleMessage({static_cast<uint8_t>(
          MessageType::kSummaryResponse)}).ValueOrDie();
  EXPECT_TRUE(DecodeSummaryResponse(response).status().IsInvalidArgument());
}

TEST(SiloTest, MemoryBreakdownIsPlausible) {
  const ObjectSet objects = testing::RandomObjects(20000, kDomain, 14);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const Silo::IndexMemory memory = silo->MemoryUsage();
  EXPECT_GT(memory.rtree_bytes, 0UL);
  EXPECT_GT(memory.lsr_extra_bytes, 0UL);
  EXPECT_GT(memory.grid_bytes, 0UL);
  EXPECT_GT(memory.histogram_bytes, 0UL);
  // The LSR levels above T_0 together hold about as many objects as T_0.
  EXPECT_LT(memory.lsr_extra_bytes, 2 * memory.rtree_bytes);
}

TEST(SiloTest, CreateRejectsBadGridSpec) {
  Silo::Options options;
  options.grid_spec.domain = Rect::Empty();
  options.grid_spec.cell_length = 1.0;
  EXPECT_FALSE(Silo::Create(0, testing::RandomObjects(10, kDomain, 15),
                            options)
                   .ok());
}

}  // namespace
}  // namespace fra
