// MoE top-k routing and the derived sorted-by-expert layout. Routing is the
// *runtime dynamic logic* that fills TileLink's dynamic-mapping lookup tables
// (paper §4.1): which tokens each expert tile consumes, hence which source
// ranks / channels it must wait on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace tilelink::compute {

struct MoeRouting {
  int64_t num_tokens = 0;
  int num_experts = 0;
  int topk = 0;

  // Per (token, slot): chosen expert and combine weight.
  std::vector<int> topk_ids;        // [num_tokens * topk]
  std::vector<float> topk_weights;  // [num_tokens * topk], sums to 1 per token

  // Sorted layout: slot indices (token * topk + slot) grouped by expert.
  std::vector<int> sorted_slots;    // [num_tokens * topk]
  std::vector<int> expert_offsets;  // [num_experts + 1] prefix sums

  int64_t total_slots() const { return num_tokens * topk; }
  int expert_count(int e) const {
    return expert_offsets[static_cast<size_t>(e) + 1] -
           expert_offsets[static_cast<size_t>(e)];
  }
  int token_of_sorted(int64_t sorted_pos) const {
    return sorted_slots[static_cast<size_t>(sorted_pos)] / topk;
  }

  // Validates internal invariants (offsets monotone, permutation property).
  void CheckValid() const;
};

// Deterministic random routing with distinct experts per token and softmax-
// normalized weights — used in timing-only mode and workload generators.
MoeRouting RandomRouting(int64_t num_tokens, int num_experts, int topk,
                         Rng& rng);

// Per-expert output-tile block descriptors for grouped GEMM: one descriptor
// per (expert row-chunk, n-tile) pair.
struct GroupBlock {
  int expert;
  int64_t sorted_row_start;  // offset into sorted_slots
  int rows;                  // <= block_m
  int64_t n_start;
  int n_cols;                // <= block_n
};

std::vector<GroupBlock> MakeGroupBlocks(const MoeRouting& routing, int64_t n,
                                        int block_m, int block_n);

}  // namespace tilelink::compute
