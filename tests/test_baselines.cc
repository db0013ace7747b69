// All baselines must produce the same numerics as the TileLink kernels and
// the serial references — only timing may differ (and must differ in the
// right direction: decomposition pays host sync, non-overlap serializes).
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/attention_baselines.h"
#include "baselines/flux_baselines.h"
#include "baselines/mlp_baselines.h"
#include "baselines/moe_baselines.h"
#include "common/rng.h"
#include "compute/flash_attention.h"
#include "compute/group_gemm.h"
#include "compute/memops.h"
#include "compute/tile_math.h"
#include "runtime/world.h"
#include "sim/trace.h"
#include "tensor/tensor_ops.h"

namespace tilelink::baselines {
namespace {

using rt::ExecMode;
using rt::RankCtx;
using rt::World;

constexpr int kR = 4;

// Shared reference: out[r] = rows r of sum_p(a[p] @ b[p]).
Tensor GemmRsReference(World& world, const comm::SymTensor& a,
                       const comm::SymTensor& b, int64_t m, int64_t n) {
  Tensor total =
      Tensor::Alloc(world.device(0), "ref_total", {m, n}, DType::kBF16);
  Tensor tmp = Tensor::Alloc(world.device(0), "ref_tmp", {m, n}, DType::kBF16);
  FillConstant(total, 0.0f);
  for (size_t p = 0; p < a.size(); ++p) {
    compute::GemmRef(a[p], b[p], tmp);
    compute::AddTile(tmp, total, 0, m, 0, n, true);
  }
  return total;
}

TEST(MlpBaselines, NonOverlapAgGemmCorrect) {
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  MlpPartConfig cfg{64 * kR, 32, 48, compute::GemmTiling{32, 16, 16}};
  NonOverlapAgGemm bench(world, cfg);
  Rng rng(61);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.a_shards()[static_cast<size_t>(r)], rng, 0.5f);
    FillRandom(bench.b()[static_cast<size_t>(r)], rng, 0.5f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  for (int r = 0; r < kR; ++r) {
    Tensor want = Tensor::Alloc(world.device(r), "w", {cfg.m, cfg.n},
                                DType::kBF16);
    compute::GemmRef(bench.a_full()[static_cast<size_t>(r)],
                     bench.b()[static_cast<size_t>(r)], want);
    EXPECT_LT(MaxAbsDiff(bench.c()[static_cast<size_t>(r)], want), 1e-4f);
  }
}

TEST(MlpBaselines, DecomposeAgGemmCorrectAndSlower) {
  MlpPartConfig cfg{64 * kR, 32, 48, compute::GemmTiling{32, 16, 16}};
  Rng rng(67);
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  DecomposeAgGemm dec(world, cfg);
  NonOverlapAgGemm ref(world, cfg);
  for (int r = 0; r < kR; ++r) {
    FillRandom(dec.a_shards()[static_cast<size_t>(r)], rng, 0.5f);
    CopyTensor(dec.a_shards()[static_cast<size_t>(r)],
               ref.a_shards()[static_cast<size_t>(r)]);
    FillRandom(dec.b()[static_cast<size_t>(r)], rng, 0.5f);
    CopyTensor(dec.b()[static_cast<size_t>(r)],
               ref.b()[static_cast<size_t>(r)]);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await dec.Run(ctx); });
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await ref.Run(ctx); });
  for (int r = 0; r < kR; ++r) {
    EXPECT_LT(MaxAbsDiff(dec.c()[static_cast<size_t>(r)],
                         ref.c()[static_cast<size_t>(r)]),
              1e-4f);
  }
}

TEST(MlpBaselines, NonOverlapGemmRsCorrect) {
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  MlpPartConfig cfg{32 * kR, 24, 40, compute::GemmTiling{32, 16, 8}};
  NonOverlapGemmRs bench(world, cfg);
  Rng rng(71);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.a()[static_cast<size_t>(r)], rng, 0.3f);
    FillRandom(bench.b()[static_cast<size_t>(r)], rng, 0.3f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  Tensor total = GemmRsReference(world, bench.a(), bench.b(), cfg.m, cfg.n);
  for (int r = 0; r < kR; ++r) {
    Tensor want = total.Slice(0, r * (cfg.m / kR), cfg.m / kR);
    EXPECT_LT(MaxAbsDiff(bench.out()[static_cast<size_t>(r)], want), 1e-3f);
  }
}

TEST(MlpBaselines, DecomposeGemmRsCorrect) {
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  MlpPartConfig cfg{32 * kR, 24, 40, compute::GemmTiling{32, 16, 8}};
  DecomposeGemmRs bench(world, cfg);
  Rng rng(73);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.a()[static_cast<size_t>(r)], rng, 0.3f);
    FillRandom(bench.b()[static_cast<size_t>(r)], rng, 0.3f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  Tensor total = GemmRsReference(world, bench.a(), bench.b(), cfg.m, cfg.n);
  for (int r = 0; r < kR; ++r) {
    Tensor want = total.Slice(0, r * (cfg.m / kR), cfg.m / kR);
    EXPECT_LT(MaxAbsDiff(bench.out()[static_cast<size_t>(r)], want), 1e-3f);
  }
}

TEST(FluxBaselines, AgGemmCorrect) {
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  FluxConfig cfg{64 * kR, 32, 48, compute::GemmTiling{32, 16, 16}};
  FluxAgGemm bench(world, cfg);
  Rng rng(79);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.a_shards()[static_cast<size_t>(r)], rng, 0.5f);
    FillRandom(bench.b()[static_cast<size_t>(r)], rng, 0.5f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  EXPECT_TRUE(world.checker().violations().empty());
  for (int r = 0; r < kR; ++r) {
    Tensor gathered = Tensor::Alloc(world.device(r), "g", {cfg.m, cfg.k},
                                    DType::kBF16);
    for (int p = 0; p < kR; ++p) {
      Tensor dst = gathered.Slice(0, p * (cfg.m / kR), cfg.m / kR);
      CopyTensor(bench.a_shards()[static_cast<size_t>(p)], dst);
    }
    Tensor want = Tensor::Alloc(world.device(r), "w", {cfg.m, cfg.n},
                                DType::kBF16);
    compute::GemmRef(gathered, bench.b()[static_cast<size_t>(r)], want);
    EXPECT_LT(MaxAbsDiff(bench.c()[static_cast<size_t>(r)], want), 1e-4f);
  }
}

TEST(FluxBaselines, GemmRsCorrect) {
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  FluxConfig cfg{32 * kR, 24, 40, compute::GemmTiling{32, 16, 8}};
  FluxGemmRs bench(world, cfg);
  Rng rng(83);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.a()[static_cast<size_t>(r)], rng, 0.3f);
    FillRandom(bench.b()[static_cast<size_t>(r)], rng, 0.3f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  Tensor total = GemmRsReference(world, bench.a(), bench.b(), cfg.m, cfg.n);
  for (int r = 0; r < kR; ++r) {
    Tensor want = total.Slice(0, r * (cfg.m / kR), cfg.m / kR);
    EXPECT_LT(MaxAbsDiff(bench.out()[static_cast<size_t>(r)], want), 1e-3f);
  }
}

TEST(FluxBaselines, GemmRsTimingMatchesFunctional) {
  // The per-block accumulators are payload state: a timing-only run builds
  // none of them and must still time the kernel exactly as a functional
  // run does.
  auto run = [](ExecMode mode) {
    World world(sim::MachineSpec::Test(kR, 16), mode);
    FluxConfig cfg{32 * kR, 24, 40, compute::GemmTiling{32, 16, 8}};
    FluxGemmRs bench(world, cfg);
    return world.RunSpmd(
        [&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  };
  EXPECT_EQ(run(ExecMode::kTimingOnly), run(ExecMode::kFunctional));
}

TEST(FluxBaselines, GemmRsBitExact) {
  // The swizzled tile order reorders the atomic adds at each owner.
  // Integer-lattice inputs keep every partial and cross-rank sum an exact
  // fp32 integer, so the output must match the reference bit for bit in any
  // order.
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  FluxConfig cfg{32 * kR, 24, 40, compute::GemmTiling{32, 16, 8}};
  FluxGemmRs bench(world, cfg);
  for (int r = 0; r < kR; ++r) {
    FillIntLattice(bench.a()[static_cast<size_t>(r)],
                   /*seed=*/static_cast<uint32_t>(r) * 7919u + 1u);
    FillIntLattice(bench.b()[static_cast<size_t>(r)],
                   /*seed=*/static_cast<uint32_t>(r) * 104729u + 3u);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  EXPECT_TRUE(world.checker().violations().empty());
  Tensor total = GemmRsReference(world, bench.a(), bench.b(), cfg.m, cfg.n);
  for (int r = 0; r < kR; ++r) {
    Tensor want = total.Slice(0, r * (cfg.m / kR), cfg.m / kR);
    EXPECT_TRUE(BitExact(bench.out()[static_cast<size_t>(r)], want))
        << "rank " << r;
  }
}

TEST(FluxBaselines, GemmRsRejectsTilesStraddlingOwners) {
  // 48 rows per rank against 32-row tiles: the second tile straddles the
  // row blocks of ranks 0 and 1, and pushing it whole to rank 0 would drop
  // rank 1's rows.
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  const FluxConfig cfg{48 * kR, 24, 40, compute::GemmTiling{32, 16, 8}};
  try {
    FluxGemmRs bench(world, cfg);
    FAIL() << "a 48-row block with 32-row tiles was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("48"), std::string::npos) << what;
    EXPECT_NE(what.find("32"), std::string::npos) << what;
  }
}

TEST(FluxBaselines, GemmRsRankTimelinesIdentical) {
  // Each rank computes its own rows first, so at every step the eight
  // ranks push to eight different owners and every rank's timeline is the
  // same. Unswizzled, all eight pushed to one owner at a time; this is the
  // smallest fig8-tiled shape (4 steps of 132 tiles per rank) at which the
  // ranks then ended compute apart (496892..521918 ns; at fig8 MLP-1,
  // 543649..1669201 ns).
  constexpr int kRanks = 8;
  World world(sim::MachineSpec::H800x8(), ExecMode::kTimingOnly);
  sim::TraceRecorder trace;
  world.set_trace(&trace);
  const FluxConfig cfg{4096, 128, 4096, compute::GemmTiling{128, 256, 64}};
  FluxGemmRs bench(world, cfg);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  std::vector<sim::TimeNs> compute_end(kRanks, 0);
  std::vector<sim::TimeNs> wire_end(kRanks, 0);
  for (const auto& e : trace.events()) {
    if (e.phase != sim::TraceRecorder::Phase::kSpan) continue;
    if (e.category == sim::kCatCompute && e.pid < kRanks) {
      compute_end[static_cast<size_t>(e.pid)] =
          std::max(compute_end[static_cast<size_t>(e.pid)], e.end);
    } else if (e.category == sim::kCatWire) {
      for (const sim::TraceArg& a : e.args) {
        if (a.key != "src") continue;
        sim::TimeNs& end = wire_end[static_cast<size_t>(a.nval)];
        end = std::max(end, e.end);
      }
    }
  }
  EXPECT_GT(compute_end[0], 0);
  EXPECT_GT(wire_end[0], compute_end[0]);
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(compute_end[static_cast<size_t>(r)], compute_end[0])
        << "rank " << r;
    EXPECT_EQ(wire_end[static_cast<size_t>(r)], wire_end[0]) << "rank " << r;
  }
}

class MoeImplTest : public ::testing::TestWithParam<MoeImpl> {};

TEST_P(MoeImplTest, Part1Correct) {
  const MoeImpl impl = GetParam();
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  MoePartConfig cfg{16 * kR, 24, 32, 4, 2, compute::GemmTiling{16, 16, 8}};
  Rng rng(89);
  compute::MoeRouting routing =
      compute::RandomRouting(cfg.m, cfg.num_experts, cfg.topk, rng);
  MoePart1 bench(world, cfg, routing, impl);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.token_shards()[static_cast<size_t>(r)], rng, 0.4f);
    FillRandom(bench.weights()[static_cast<size_t>(r)], rng, 0.4f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  for (int r = 0; r < kR; ++r) {
    Tensor gathered = Tensor::Alloc(world.device(r), "g",
                                    {cfg.m, cfg.hidden}, DType::kBF16);
    for (int p = 0; p < kR; ++p) {
      Tensor dst = gathered.Slice(0, p * (cfg.m / kR), cfg.m / kR);
      CopyTensor(bench.token_shards()[static_cast<size_t>(p)], dst);
    }
    Tensor want = Tensor::Alloc(world.device(r), "w",
                                {cfg.m * cfg.topk, cfg.inner}, DType::kBF16);
    compute::GroupGemmRef(gathered, bench.weights()[static_cast<size_t>(r)],
                          want, routing);
    EXPECT_LT(MaxAbsDiff(bench.out()[static_cast<size_t>(r)], want), 1e-4f)
        << "impl " << static_cast<int>(impl) << " rank " << r;
  }
}

TEST_P(MoeImplTest, Part2Correct) {
  const MoeImpl impl = GetParam();
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  MoePartConfig cfg{16 * kR, 20, 16, 4, 2, compute::GemmTiling{16, 16, 8}};
  Rng rng(97);
  compute::MoeRouting routing =
      compute::RandomRouting(cfg.m, cfg.num_experts, cfg.topk, rng);
  MoePart2 bench(world, cfg, routing, impl);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.acts()[static_cast<size_t>(r)], rng, 0.3f);
    FillRandom(bench.weights()[static_cast<size_t>(r)], rng, 0.3f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  // Reference.
  const int64_t m_per = cfg.m / kR;
  Tensor total = Tensor::Alloc(world.device(0), "t", {cfg.m, cfg.hidden},
                               DType::kBF16);
  FillConstant(total, 0.0f);
  for (int p = 0; p < kR; ++p) {
    Tensor exp_out = Tensor::Alloc(world.device(p), "e",
                                   {cfg.m * cfg.topk, cfg.hidden},
                                   DType::kBF16);
    for (int64_t slot = 0; slot < cfg.m * cfg.topk; ++slot) {
      const int e = routing.topk_ids[static_cast<size_t>(slot)];
      const Tensor w = bench.weights()[static_cast<size_t>(p)].Select(0, e);
      for (int64_t c = 0; c < cfg.hidden; ++c) {
        float acc = 0.0f;
        for (int64_t x = 0; x < cfg.inner; ++x) {
          acc += bench.acts()[static_cast<size_t>(p)].at({slot, x}) *
                 w.at({x, c});
        }
        exp_out.at({slot, c}) = acc;
      }
    }
    Tensor combined = Tensor::Alloc(world.device(p), "c",
                                    {cfg.m, cfg.hidden}, DType::kBF16);
    compute::TopkReduceRef(exp_out, combined, routing.topk_weights, cfg.topk);
    compute::AddTile(combined, total, 0, cfg.m, 0, cfg.hidden, true);
  }
  for (int r = 0; r < kR; ++r) {
    Tensor want = total.Slice(0, r * m_per, m_per);
    EXPECT_LT(MaxAbsDiff(bench.out()[static_cast<size_t>(r)], want), 1e-3f)
        << "impl " << static_cast<int>(impl);
  }
}

INSTANTIATE_TEST_SUITE_P(Impls, MoeImplTest,
                         ::testing::Values(MoeImpl::kCublas, MoeImpl::kCutlass,
                                           MoeImpl::kVllm));

TEST(AttentionBaselines, TorchMatchesReference) {
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  AttentionConfig cfg;
  cfg.batch_heads = 2;
  cfg.seq = 16 * kR;
  cfg.head_dim = 16;
  cfg.block_q = 16;
  cfg.block_kv = 16;
  TorchAttention bench(world, cfg);
  Rng rng(101);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.q()[static_cast<size_t>(r)], rng, 0.4f);
    FillRandom(bench.k_shards()[static_cast<size_t>(r)], rng, 0.4f);
    FillRandom(bench.v_shards()[static_cast<size_t>(r)], rng, 0.4f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  const int64_t s_per = cfg.seq / kR;
  for (int r = 0; r < kR; ++r) {
    Tensor kf = Tensor::Alloc(world.device(r), "kf",
                              {cfg.batch_heads, cfg.seq, cfg.head_dim},
                              DType::kBF16);
    Tensor vf = Tensor::Alloc(world.device(r), "vf",
                              {cfg.batch_heads, cfg.seq, cfg.head_dim},
                              DType::kBF16);
    for (int p = 0; p < kR; ++p) {
      Tensor kd = kf.Slice(1, p * s_per, s_per);
      Tensor vd = vf.Slice(1, p * s_per, s_per);
      CopyTensor(bench.k_shards()[static_cast<size_t>(p)], kd);
      CopyTensor(bench.v_shards()[static_cast<size_t>(p)], vd);
    }
    Tensor want = Tensor::Alloc(world.device(r), "w",
                                {cfg.batch_heads, s_per, cfg.head_dim},
                                DType::kBF16);
    compute::AttentionRef(bench.q()[static_cast<size_t>(r)], kf, vf, want);
    EXPECT_LT(MaxAbsDiff(bench.out()[static_cast<size_t>(r)], want), 2e-4f);
  }
}

TEST(AttentionBaselines, RingAttentionMatchesReference) {
  World world(sim::MachineSpec::Test(kR, 16), ExecMode::kFunctional);
  AttentionConfig cfg;
  cfg.batch_heads = 2;
  cfg.seq = 16 * kR;
  cfg.head_dim = 16;
  cfg.block_q = 16;
  cfg.block_kv = 16;
  RingAttention bench(world, cfg);
  Rng rng(103);
  for (int r = 0; r < kR; ++r) {
    FillRandom(bench.q()[static_cast<size_t>(r)], rng, 0.4f);
    FillRandom(bench.k_shards()[static_cast<size_t>(r)], rng, 0.4f);
    FillRandom(bench.v_shards()[static_cast<size_t>(r)], rng, 0.4f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  const int64_t s_per = cfg.seq / kR;
  for (int r = 0; r < kR; ++r) {
    Tensor kf = Tensor::Alloc(world.device(r), "kf",
                              {cfg.batch_heads, cfg.seq, cfg.head_dim},
                              DType::kBF16);
    Tensor vf = Tensor::Alloc(world.device(r), "vf",
                              {cfg.batch_heads, cfg.seq, cfg.head_dim},
                              DType::kBF16);
    for (int p = 0; p < kR; ++p) {
      Tensor kd = kf.Slice(1, p * s_per, s_per);
      Tensor vd = vf.Slice(1, p * s_per, s_per);
      CopyTensor(bench.k_shards()[static_cast<size_t>(p)], kd);
      CopyTensor(bench.v_shards()[static_cast<size_t>(p)], vd);
    }
    Tensor want = Tensor::Alloc(world.device(r), "w",
                                {cfg.batch_heads, s_per, cfg.head_dim},
                                DType::kBF16);
    compute::AttentionRef(bench.q()[static_cast<size_t>(r)], kf, vf, want);
    EXPECT_LT(MaxAbsDiff(bench.out()[static_cast<size_t>(r)], want), 2e-4f);
  }
}

}  // namespace
}  // namespace tilelink::baselines
