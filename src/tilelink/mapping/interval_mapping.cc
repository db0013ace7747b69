#include "tilelink/mapping/interval_mapping.h"

#include "common/check.h"

namespace tilelink::tl {

std::vector<int64_t> WeightedExtents(int64_t total,
                                     const std::vector<double>& weights) {
  TL_CHECK_GE(total, 0);
  std::vector<int64_t> extents(weights.size(), 0);
  double weight_sum = 0.0;
  for (double w : weights) {
    TL_CHECK_GE(w, 0.0);
    weight_sum += w;
  }
  if (total == 0 || weight_sum <= 0.0 || weights.empty()) return extents;
  // Largest-remainder: floor each proportional share, then hand the
  // leftover units to the largest fractional remainders (ties: lowest
  // index) so the extents sum to `total` exactly.
  std::vector<double> remainder(weights.size(), 0.0);
  int64_t assigned = 0;
  for (size_t s = 0; s < weights.size(); ++s) {
    const double share =
        static_cast<double>(total) * (weights[s] / weight_sum);
    extents[s] = static_cast<int64_t>(share);
    remainder[s] = share - static_cast<double>(extents[s]);
    if (weights[s] <= 0.0) {
      extents[s] = 0;
      remainder[s] = -1.0;  // never receives leftover units
    }
    assigned += extents[s];
  }
  for (int64_t left = total - assigned; left > 0; --left) {
    size_t best = 0;
    for (size_t s = 1; s < weights.size(); ++s) {
      if (remainder[s] > remainder[best]) best = s;
    }
    extents[best]++;
    remainder[best] = -1.0;
  }
  return extents;
}

}  // namespace tilelink::tl
