// Weighted extent apportioning (tilelink/mapping/interval_mapping.h), the
// split the rail failover scheduler uses to rebalance chunks across
// surviving rails.
#include <gtest/gtest.h>

#include "tilelink/mapping/interval_mapping.h"

namespace tilelink::tl {
namespace {

TEST(WeightedExtentsTest, ProportionalSplitSumsExactly) {
  // Healthy rails split evenly; a half-bandwidth rail gets half a share.
  EXPECT_EQ(WeightedExtents(12, {1.0, 1.0, 1.0, 1.0}),
            (std::vector<int64_t>{3, 3, 3, 3}));
  EXPECT_EQ(WeightedExtents(12, {1.0, 1.0, 1.0, 0.5}),
            (std::vector<int64_t>{4, 3, 3, 2}));
  // Largest-remainder with ties: leftover units go to the lowest index.
  EXPECT_EQ(WeightedExtents(7, {1.0, 1.0, 1.0}),
            (std::vector<int64_t>{3, 2, 2}));
}

TEST(WeightedExtentsTest, DeadWeightsReceiveNothing) {
  // A dead rail (weight 0) must get zero chunks even when the largest-
  // remainder pass hands out leftovers.
  EXPECT_EQ(WeightedExtents(12, {1.0, 1.0, 1.0, 0.0}),
            (std::vector<int64_t>{4, 4, 4, 0}));
  EXPECT_EQ(WeightedExtents(1, {0.0, 1.0}), (std::vector<int64_t>{0, 1}));
  // All dead: nothing is assignable (the caller falls back to rail 0 and
  // lets ack timeouts drive recovery).
  EXPECT_EQ(WeightedExtents(5, {0.0, 0.0}), (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(WeightedExtents(0, {1.0, 1.0}), (std::vector<int64_t>{0, 0}));
}

}  // namespace
}  // namespace tilelink::tl
