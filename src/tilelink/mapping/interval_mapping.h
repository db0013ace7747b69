// Weighted extent apportioning for shard planning: splits a whole number
// of units across owners in proportion to their weights. Its one user is
// RailScheduler (builder/link_roles.cc).
#pragma once

#include <cstdint>
#include <vector>

namespace tilelink::tl {

// Apportions `total` units across shards proportionally to `weights`
// (largest-remainder method: exact sum, deterministic ties to the lowest
// index). A zero weight yields a zero extent; all-zero weights yield all
// zeros. The rail failover scheduler rebalances a stream's remaining chunks
// across surviving rails with this, weights = surviving rail bandwidth.
std::vector<int64_t> WeightedExtents(int64_t total,
                                     const std::vector<double>& weights);

}  // namespace tilelink::tl
