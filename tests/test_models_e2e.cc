// Tests for the model zoo and the end-to-end estimator: configs sane, layer
// timings positive and cached, speedups in a plausible band, MoE layers use
// the MoE path, the two-node setup dilutes the speedup.
#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "models/transformer.h"

namespace tilelink::models {
namespace {

TEST(ModelZoo, HasTheEightFigure11Models) {
  const auto zoo = Figure11Models();
  ASSERT_EQ(zoo.size(), 8u);
  int moe = 0;
  for (const ModelConfig& m : zoo) {
    EXPECT_GT(m.hidden, 0);
    EXPECT_GT(m.layers, 0);
    EXPECT_GT(m.heads, 0);
    EXPECT_GT(m.intermediate, 0);
    if (m.is_moe) {
      ++moe;
      EXPECT_GT(m.num_experts, 0);
      EXPECT_GT(m.topk, 0);
    }
  }
  EXPECT_EQ(moe, 3);  // Mixtral x2 + Qwen
}

TEST(ModelZoo, LookupByNameWorksAndThrows) {
  EXPECT_EQ(GetModel("LLaMA2-70B").hidden, 8192);
  EXPECT_EQ(GetModel("Qwen1.5-2.7B").shared_expert_intermediate, 5632);
  EXPECT_THROW(GetModel("GPT-5"), Error);
}

TEST(E2eEstimator, DenseLayerSpeedupInPlausibleBand) {
  // Small seq keeps the simulation quick; TP=4.
  E2eEstimator est(/*tp=*/4, /*batch=*/1, /*seq=*/4096, /*two_node=*/false);
  const E2eResult r = est.Run(GetModel("LLaMA2-7B"));
  EXPECT_GT(r.torch_layer, 0);
  EXPECT_GT(r.tilelink_layer, 0);
  EXPECT_GT(r.speedup, 1.0);  // overlap must help dense layers
  EXPECT_LT(r.speedup, 3.0);  // and cannot exceed a sane bound
  EXPECT_EQ(r.torch_total, r.torch_layer * 32);
}

TEST(E2eEstimator, CachingMakesSecondModelCheap) {
  E2eEstimator est(4, 1, 4096, false);
  const E2eResult a = est.Run(GetModel("GPT3-6.7B"));
  const E2eResult b = est.Run(GetModel("GPT3-6.7B"));
  EXPECT_EQ(a.torch_layer, b.torch_layer);
  EXPECT_EQ(a.tilelink_layer, b.tilelink_layer);
}

TEST(E2eEstimator, TwoNodeDilutesSpeedup) {
  E2eEstimator one(4, 1, 4096, false);
  E2eEstimator two(4, 1, 4096, true);
  const double s1 = one.Run(GetModel("LLaMA2-7B")).speedup;
  const double s2 = two.Run(GetModel("LLaMA2-7B")).speedup;
  EXPECT_GT(s1, s2);
  EXPECT_GT(s2, 1.0);
}

// TP=16 spans two nodes: the row-parallel projections run the fused
// GEMM + hierarchical ReduceScatter kernel over the NIC fabric, and must
// beat the 16-rank non-overlapped baseline (whose flat ring RS drowns in
// the two NIC hops).
TEST(E2eEstimator, TpSpanningNodesUsesFusedHierRs) {
  E2eEstimator est(/*tp=*/16, /*batch=*/1, /*seq=*/4096, /*two_node=*/false);
  const E2eResult r = est.Run(GetModel("LLaMA2-7B"));
  EXPECT_GT(r.torch_layer, 0);
  EXPECT_GT(r.tilelink_layer, 0);
  EXPECT_GT(r.speedup, 1.0);
  EXPECT_LT(r.speedup, 6.0);  // NIC-bound baseline inflates the win
}

// A TP group wider than one node must fill whole nodes: the GEMM+RS
// kernel's rail peers are (node, local) pairs, and ragged nodes are not
// modeled.
TEST(E2eEstimator, TpSpanningAPartialNodeIsRejected) {
  EXPECT_THROW(E2eEstimator(/*tp=*/12, 1, 4096, false), Error);
  EXPECT_NO_THROW(E2eEstimator(/*tp=*/6, 1, 4096, false));
  EXPECT_NO_THROW(E2eEstimator(/*tp=*/24, 1, 4096, false));
}

TEST(E2eEstimator, LayerBreakdownSumsToTotal) {
  E2eEstimator est(4, 1, 4096, false);
  const ModelConfig m = GetModel("LLaMA2-7B");
  const LayerBreakdown lb = est.LayerTime(m, Method::kTileLink);
  EXPECT_GT(lb.attn_block, 0);
  EXPECT_GT(lb.ffn_block, 0);
  EXPECT_EQ(lb.total(), lb.attn_block + lb.ffn_block);
}

}  // namespace
}  // namespace tilelink::models
