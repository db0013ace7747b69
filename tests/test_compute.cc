// Compute kernels vs. naive references: GEMM, grouped GEMM, flash attention,
// activations, routing, topk reduce, gather/scatter.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compute/flash_attention.h"
#include "compute/gemm.h"
#include "compute/group_gemm.h"
#include "compute/memops.h"
#include "compute/moe_routing.h"
#include "runtime/world.h"
#include "tensor/tensor_ops.h"

namespace tilelink::compute {
namespace {

using rt::ExecMode;
using rt::RankCtx;
using rt::World;

sim::Coro SyncStream(RankCtx& ctx) { co_await ctx.stream->Synchronize(); }

struct GemmShape {
  int64_t m, n, k;
  int bm, bn, bk;
};

class GemmShapeTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapeTest, MatchesReference) {
  const GemmShape p = GetParam();
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  Rng rng(11);
  Tensor a = Tensor::Alloc(world.device(0), "a", {p.m, p.k}, DType::kBF16);
  Tensor b = Tensor::Alloc(world.device(0), "b", {p.k, p.n}, DType::kBF16);
  Tensor c = Tensor::Alloc(world.device(0), "c", {p.m, p.n}, DType::kBF16);
  Tensor want = Tensor::Alloc(world.device(0), "w", {p.m, p.n}, DType::kBF16);
  FillRandom(a, rng, 0.5f);
  FillRandom(b, rng, 0.5f);
  GemmRef(a, b, want);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    GemmOptions opt;
    opt.tiling = GemmTiling{p.bm, p.bn, p.bk};
    LaunchGemm(ctx, *ctx.stream, a, b, c, opt);
    co_await SyncStream(ctx);
  });
  EXPECT_LT(MaxAbsDiff(c, want), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(GemmShape{64, 64, 32, 32, 32, 16},
                      GemmShape{128, 96, 64, 64, 32, 32},
                      GemmShape{100, 60, 28, 32, 32, 16},  // ragged edges
                      GemmShape{256, 128, 128, 128, 64, 64},
                      GemmShape{32, 256, 16, 16, 128, 16}));

TEST(Gemm, WaveQuantizationSlowsSmallChunks) {
  // Decomposed chunks (8 launches of M/8) must be slower than one launch.
  const sim::MachineSpec spec = sim::MachineSpec::H800x8();
  const sim::CostModel cost(spec);
  const GemmTiling t{128, 256, 64};
  const sim::TimeNs whole =
      AnalyticGemmTime(cost, 8192, 1376, 4096, t, spec.sms_per_device);
  sim::TimeNs chunked = 0;
  for (int i = 0; i < 8; ++i) {
    chunked += AnalyticGemmTime(cost, 1024, 1376, 4096, t, spec.sms_per_device);
  }
  EXPECT_GT(chunked, whole);
}

TEST(MoeRouting, RandomRoutingIsValidPermutation) {
  Rng rng(1);
  MoeRouting r = RandomRouting(128, 8, 2, rng);
  r.CheckValid();
  // Distinct experts per token.
  for (int64_t t = 0; t < r.num_tokens; ++t) {
    EXPECT_NE(r.topk_ids[static_cast<size_t>(t * 2)],
              r.topk_ids[static_cast<size_t>(t * 2 + 1)]);
    const float w = r.topk_weights[static_cast<size_t>(t * 2)] +
                    r.topk_weights[static_cast<size_t>(t * 2 + 1)];
    EXPECT_NEAR(w, 1.0f, 1e-5f);
  }
}

TEST(MoeRouting, GroupBlocksCoverAllSlotsOnce) {
  Rng rng(2);
  MoeRouting r = RandomRouting(200, 16, 4, rng);
  auto blocks = MakeGroupBlocks(r, 96, 32, 32);
  std::vector<int> covered(static_cast<size_t>(r.total_slots()), 0);
  for (const GroupBlock& gb : blocks) {
    if (gb.n_start != 0) continue;  // count each row once
    for (int i = 0; i < gb.rows; ++i) {
      covered[static_cast<size_t>(
          r.sorted_slots[static_cast<size_t>(gb.sorted_row_start + i)])]++;
    }
  }
  for (int64_t i = 0; i < r.total_slots(); ++i) {
    EXPECT_EQ(covered[static_cast<size_t>(i)], 1) << "slot " << i;
  }
}

TEST(GroupGemm, FusedMatchesReference) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  Rng rng(9);
  const int64_t m = 96, k = 32, n = 48;
  const int experts = 4, topk = 2;
  MoeRouting routing = RandomRouting(m, experts, topk, rng);
  Tensor tokens = Tensor::Alloc(world.device(0), "t", {m, k}, DType::kBF16);
  Tensor w =
      Tensor::Alloc(world.device(0), "w", {experts, k, n}, DType::kBF16);
  Tensor out =
      Tensor::Alloc(world.device(0), "o", {m * topk, n}, DType::kBF16);
  Tensor want =
      Tensor::Alloc(world.device(0), "want", {m * topk, n}, DType::kBF16);
  FillRandom(tokens, rng, 0.5f);
  FillRandom(w, rng, 0.5f);
  GroupGemmRef(tokens, w, want, routing);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    GroupGemmOptions opt;
    opt.tiling = GemmTiling{32, 32, 16};
    LaunchGroupGemmFused(ctx, *ctx.stream, tokens, w, out, routing, opt);
    co_await SyncStream(ctx);
  });
  EXPECT_LT(MaxAbsDiff(out, want), 1e-4f);
}

TEST(FlashAttention, MatchesEagerReference) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  Rng rng(13);
  const int64_t bh = 3, sq = 40, skv = 64, d = 16;
  Tensor q = Tensor::Alloc(world.device(0), "q", {bh, sq, d}, DType::kBF16);
  Tensor k = Tensor::Alloc(world.device(0), "k", {bh, skv, d}, DType::kBF16);
  Tensor v = Tensor::Alloc(world.device(0), "v", {bh, skv, d}, DType::kBF16);
  Tensor o = Tensor::Alloc(world.device(0), "o", {bh, sq, d}, DType::kBF16);
  Tensor want =
      Tensor::Alloc(world.device(0), "w", {bh, sq, d}, DType::kBF16);
  FillRandom(q, rng, 0.5f);
  FillRandom(k, rng, 0.5f);
  FillRandom(v, rng, 0.5f);
  AttentionRef(q, k, v, want);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    FlashOptions opt;
    opt.block_q = 16;
    opt.block_kv = 16;
    LaunchFlashAttention(ctx, *ctx.stream, q, k, v, o, opt);
    co_await SyncStream(ctx);
  });
  EXPECT_LT(MaxAbsDiff(o, want), 2e-4f);
}

TEST(FlashAttention, DeRatedThroughputOnlyChangesTiming) {
  // Timing-only, compute-dominated shape: a 4x de-rate must cost >2x.
  const int64_t bh = 8, sq = 1024, skv = 4096, d = 128;
  auto run = [&](double tf) {
    World world(sim::MachineSpec::Test(1, /*sms=*/16), ExecMode::kTimingOnly);
    Tensor q = Tensor::Alloc(world.device(0), "q", {bh, sq, d}, DType::kBF16);
    Tensor k = Tensor::Alloc(world.device(0), "k", {bh, skv, d}, DType::kBF16);
    Tensor v = Tensor::Alloc(world.device(0), "v", {bh, skv, d}, DType::kBF16);
    Tensor o = Tensor::Alloc(world.device(0), "o", {bh, sq, d}, DType::kBF16);
    return world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
      FlashOptions opt;
      opt.throughput_factor = tf;
      LaunchFlashAttention(ctx, *ctx.stream, q, k, v, o, opt);
      co_await SyncStream(ctx);
    });
  };
  const sim::TimeNs t1 = run(1.0);
  const sim::TimeNs t2 = run(0.25);
  EXPECT_GT(t2, t1 * 2);
}

TEST(Memops, GatherThenScatterRoundTrips) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  Rng rng(19);
  const int64_t m = 50, n = 10;
  Tensor src = Tensor::Alloc(world.device(0), "s", {m, n}, DType::kBF16);
  Tensor mid = Tensor::Alloc(world.device(0), "m", {m, n}, DType::kBF16);
  Tensor dst = Tensor::Alloc(world.device(0), "d", {m, n}, DType::kBF16);
  FillRandom(src, rng);
  std::vector<int> perm(m);
  for (int64_t i = 0; i < m; ++i) perm[static_cast<size_t>(i)] = static_cast<int>(i);
  rng.Shuffle(perm);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    LaunchGatherRows(ctx, *ctx.stream, src, mid, perm);
    LaunchScatterRows(ctx, *ctx.stream, mid, dst, perm);
    co_await SyncStream(ctx);
  });
  EXPECT_EQ(MaxAbsDiff(dst, src), 0.0f);
}

TEST(Memops, TopkReduceMatchesReference) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  Rng rng(23);
  const int64_t m = 40, n = 12;
  const int topk = 3;
  Tensor in = Tensor::Alloc(world.device(0), "i", {m * topk, n}, DType::kBF16);
  Tensor out = Tensor::Alloc(world.device(0), "o", {m, n}, DType::kBF16);
  Tensor want = Tensor::Alloc(world.device(0), "w", {m, n}, DType::kBF16);
  FillRandom(in, rng);
  std::vector<float> weights(static_cast<size_t>(m * topk));
  for (auto& w : weights) w = rng.NextFloat();
  TopkReduceRef(in, want, weights, topk);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    LaunchTopkReduce(ctx, *ctx.stream, in, out, weights, topk);
    co_await SyncStream(ctx);
  });
  EXPECT_LT(MaxAbsDiff(out, want), 1e-5f);
}

}  // namespace
}  // namespace tilelink::compute
