#include "mesh/axis.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace photherm::mesh {
namespace {

TEST(GenerateTicks, IncludesBoundaries) {
  const auto ticks = generate_ticks(0.0, 10.0, {3.0, 7.0}, 100.0, {});
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_DOUBLE_EQ(ticks[0], 0.0);
  EXPECT_DOUBLE_EQ(ticks[1], 3.0);
  EXPECT_DOUBLE_EQ(ticks[2], 7.0);
  EXPECT_DOUBLE_EQ(ticks[3], 10.0);
}

TEST(GenerateTicks, SubdividesToMaxSize) {
  const auto ticks = generate_ticks(0.0, 1.0, {}, 0.3, {});
  // 1.0 / 0.3 -> 4 pieces of 0.25.
  ASSERT_EQ(ticks.size(), 5u);
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_LE(ticks[i] - ticks[i - 1], 0.3 + 1e-12);
  }
}

TEST(GenerateTicks, RefinementAppliesLocally) {
  std::vector<AxisRefinement> refinements{{0.4, 0.6, 0.05}};
  const auto ticks = generate_ticks(0.0, 1.0, {}, 1.0, refinements);
  // Outside [0.4, 0.6] cells can be large; inside they are <= 0.05.
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    const double mid = 0.5 * (ticks[i] + ticks[i - 1]);
    if (mid > 0.4 && mid < 0.6) {
      EXPECT_LE(ticks[i] - ticks[i - 1], 0.05 + 1e-12);
    }
  }
  EXPECT_GE(ticks.size(), 5u);
}

TEST(GenerateTicks, MergesNearDuplicates) {
  const auto ticks = generate_ticks(0.0, 1.0, {0.5, 0.5 + 1e-12}, 10.0, {});
  EXPECT_EQ(ticks.size(), 3u);
}

TEST(GenerateTicks, IgnoresOutOfDomainBoundaries) {
  const auto ticks = generate_ticks(0.0, 1.0, {-5.0, 0.5, 7.0}, 10.0, {});
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks[1], 0.5);
}

TEST(GenerateTicks, Validation) {
  EXPECT_THROW(generate_ticks(1.0, 0.0, {}, 1.0, {}), Error);
  EXPECT_THROW(generate_ticks(0.0, 1.0, {}, 0.0, {}), Error);
  EXPECT_THROW(generate_ticks(0.0, 1.0, {}, 1.0, {{0.1, 0.2, 0.0}}), Error);
}

TEST(AxisGrid, CellGeometry) {
  const AxisGrid g({0.0, 1.0, 3.0});
  EXPECT_EQ(g.cell_count(), 2u);
  EXPECT_DOUBLE_EQ(g.cell_width(0), 1.0);
  EXPECT_DOUBLE_EQ(g.cell_width(1), 2.0);
  EXPECT_DOUBLE_EQ(g.cell_center(1), 2.0);
  EXPECT_DOUBLE_EQ(g.lo(), 0.0);
  EXPECT_DOUBLE_EQ(g.hi(), 3.0);
}

TEST(AxisGrid, FindCell) {
  const AxisGrid g({0.0, 1.0, 2.0, 4.0});
  EXPECT_EQ(g.find_cell(-1.0), 0u);
  EXPECT_EQ(g.find_cell(0.0), 0u);
  EXPECT_EQ(g.find_cell(0.5), 0u);
  EXPECT_EQ(g.find_cell(1.0), 1u);
  EXPECT_EQ(g.find_cell(1.999), 1u);
  EXPECT_EQ(g.find_cell(3.9), 2u);
  EXPECT_EQ(g.find_cell(4.0), 2u);
  EXPECT_EQ(g.find_cell(99.0), 2u);
}

TEST(FindSegment, BoundariesAndInterior) {
  const AxisGrid g({0.0, 1.0, 2.0, 5.0});
  EXPECT_EQ(g.find_cell(-1.0), 0u);
  EXPECT_EQ(g.find_cell(0.0), 0u);
  EXPECT_EQ(g.find_cell(0.5), 0u);
  EXPECT_EQ(g.find_cell(1.0), 1u);
  EXPECT_EQ(g.find_cell(1.999), 1u);
  EXPECT_EQ(g.find_cell(4.0), 2u);
  EXPECT_EQ(g.find_cell(5.0), 2u);
  EXPECT_EQ(g.find_cell(99.0), 2u);
}

TEST(AxisGrid, CellRange) {
  const AxisGrid g({0.0, 1.0, 2.0, 3.0, 4.0});
  {
    const auto [first, last] = g.cell_range(1.0, 3.0);
    EXPECT_EQ(first, 1u);
    EXPECT_EQ(last, 3u);
  }
  {
    // Partially overlapping cells are included.
    const auto [first, last] = g.cell_range(0.5, 2.5);
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(last, 3u);
  }
  {
    // Query outside the domain clamps to empty.
    const auto [first, last] = g.cell_range(10.0, 12.0);
    EXPECT_EQ(first, last);
  }
  {
    // Range covering everything.
    const auto [first, last] = g.cell_range(-1.0, 99.0);
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(last, 4u);
  }
}

TEST(AxisGrid, Validation) {
  EXPECT_THROW(AxisGrid({1.0}), Error);
  EXPECT_THROW(AxisGrid({1.0, 1.0}), Error);
  EXPECT_THROW(AxisGrid({2.0, 1.0}), Error);
}

}  // namespace
}  // namespace photherm::mesh
