#include "compute/moe_routing.h"

#include <algorithm>

#include "common/math_utils.h"

namespace tilelink::compute {
namespace {

void BuildSorted(MoeRouting& r) {
  const int64_t slots = r.total_slots();
  std::vector<int> counts(static_cast<size_t>(r.num_experts), 0);
  for (int64_t i = 0; i < slots; ++i) {
    counts[static_cast<size_t>(r.topk_ids[static_cast<size_t>(i)])]++;
  }
  r.expert_offsets.assign(static_cast<size_t>(r.num_experts) + 1, 0);
  for (int e = 0; e < r.num_experts; ++e) {
    r.expert_offsets[static_cast<size_t>(e) + 1] =
        r.expert_offsets[static_cast<size_t>(e)] + counts[static_cast<size_t>(e)];
  }
  r.sorted_slots.assign(static_cast<size_t>(slots), 0);
  std::vector<int> cursor(r.expert_offsets.begin(), r.expert_offsets.end() - 1);
  for (int64_t i = 0; i < slots; ++i) {
    const int e = r.topk_ids[static_cast<size_t>(i)];
    r.sorted_slots[static_cast<size_t>(cursor[static_cast<size_t>(e)]++)] =
        static_cast<int>(i);
  }
}

}  // namespace

void MoeRouting::CheckValid() const {
  TL_CHECK_EQ(static_cast<int64_t>(topk_ids.size()), total_slots());
  TL_CHECK_EQ(static_cast<int64_t>(sorted_slots.size()), total_slots());
  TL_CHECK_EQ(static_cast<int>(expert_offsets.size()), num_experts + 1);
  TL_CHECK_EQ(expert_offsets.front(), 0);
  TL_CHECK_EQ(expert_offsets.back(), static_cast<int>(total_slots()));
  std::vector<bool> seen(static_cast<size_t>(total_slots()), false);
  for (int e = 0; e < num_experts; ++e) {
    TL_CHECK_LE(expert_offsets[static_cast<size_t>(e)],
                expert_offsets[static_cast<size_t>(e) + 1]);
    for (int i = expert_offsets[static_cast<size_t>(e)];
         i < expert_offsets[static_cast<size_t>(e) + 1]; ++i) {
      const int slot = sorted_slots[static_cast<size_t>(i)];
      TL_CHECK(!seen[static_cast<size_t>(slot)]);
      seen[static_cast<size_t>(slot)] = true;
      TL_CHECK_EQ(topk_ids[static_cast<size_t>(slot)], e);
    }
  }
}

MoeRouting RandomRouting(int64_t num_tokens, int num_experts, int topk,
                         Rng& rng) {
  TL_CHECK_LE(topk, num_experts);
  MoeRouting r;
  r.num_tokens = num_tokens;
  r.num_experts = num_experts;
  r.topk = topk;
  r.topk_ids.reserve(static_cast<size_t>(num_tokens * topk));
  r.topk_weights.reserve(static_cast<size_t>(num_tokens * topk));
  std::vector<int> experts(static_cast<size_t>(num_experts));
  for (int e = 0; e < num_experts; ++e) experts[static_cast<size_t>(e)] = e;
  for (int64_t t = 0; t < num_tokens; ++t) {
    // Partial Fisher-Yates: first `topk` entries become the chosen experts.
    for (int k = 0; k < topk; ++k) {
      const size_t j = static_cast<size_t>(k) +
                       static_cast<size_t>(rng.NextU64(
                           static_cast<uint64_t>(num_experts - k)));
      std::swap(experts[static_cast<size_t>(k)], experts[j]);
    }
    float total = 0.0f;
    std::vector<float> raw(static_cast<size_t>(topk));
    for (int k = 0; k < topk; ++k) {
      raw[static_cast<size_t>(k)] = 0.25f + rng.NextFloat();
      total += raw[static_cast<size_t>(k)];
    }
    for (int k = 0; k < topk; ++k) {
      r.topk_ids.push_back(experts[static_cast<size_t>(k)]);
      r.topk_weights.push_back(raw[static_cast<size_t>(k)] / total);
    }
  }
  BuildSorted(r);
  return r;
}

std::vector<GroupBlock> MakeGroupBlocks(const MoeRouting& routing, int64_t n,
                                        int block_m, int block_n) {
  std::vector<GroupBlock> blocks;
  const int64_t n_tiles = CeilDiv(n, static_cast<int64_t>(block_n));
  for (int e = 0; e < routing.num_experts; ++e) {
    const int64_t lo = routing.expert_offsets[static_cast<size_t>(e)];
    const int64_t hi = routing.expert_offsets[static_cast<size_t>(e) + 1];
    for (int64_t row = lo; row < hi; row += block_m) {
      const int rows = static_cast<int>(std::min<int64_t>(block_m, hi - row));
      for (int64_t tn = 0; tn < n_tiles; ++tn) {
        const int cols = static_cast<int>(
            std::min<int64_t>(block_n, n - tn * block_n));
        blocks.push_back(GroupBlock{e, row, rows, tn * block_n, cols});
      }
    }
  }
  return blocks;
}

}  // namespace tilelink::compute
