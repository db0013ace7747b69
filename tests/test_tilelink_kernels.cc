// Integration tests: every TileLink overlapped kernel vs. a serial reference,
// across communication resources, world sizes and shapes. These are the
// load-bearing correctness tests of the reproduction — the overlapped
// schedules must produce bit-identical (GEMM) or fp-close (attention)
// numerics while the consistency checker observes no violations.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "compute/flash_attention.h"
#include "compute/gemm.h"
#include "compute/group_gemm.h"
#include "compute/memops.h"
#include "runtime/world.h"
#include "tensor/tensor_ops.h"
#include "tilelink/kernels/ag_attention.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/ag_moe.h"
#include "tilelink/kernels/gemm_rs.h"
#include "compute/tile_math.h"
#include "tilelink/kernels/moe_rs.h"

namespace tilelink::tl {
namespace {

using rt::ExecMode;
using rt::RankCtx;
using rt::World;

// ---------------------------------------------------------------------- //
// AG + GEMM
// ---------------------------------------------------------------------- //

struct AgGemmParam {
  int ranks;
  CommResource comm;
};

class AgGemmTest : public ::testing::TestWithParam<AgGemmParam> {};

TEST_P(AgGemmTest, MatchesSerialReference) {
  const auto [R, comm] = GetParam();
  sim::MachineSpec spec = sim::MachineSpec::Test(R, /*sms=*/16);
  World world(spec, ExecMode::kFunctional);
  world.checker().set_enabled(true);
  AgGemmConfig cfg;
  cfg.m = 64 * R;
  cfg.k = 32;
  cfg.n = 48;
  cfg.gemm = compute::GemmTiling{32, 16, 16};
  cfg.comm_tile_m = 16;
  cfg.comm = comm;
  cfg.comm_sms = 4;
  AgGemm kernel(world, cfg);
  Rng rng(31);
  for (int r = 0; r < R; ++r) {
    FillRandom(kernel.a_shards()[static_cast<size_t>(r)], rng, 0.5f);
    FillRandom(kernel.b()[static_cast<size_t>(r)], rng, 0.5f);
  }
  const sim::TimeNs t = world.RunSpmd(
      [&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  EXPECT_GT(t, 0);
  EXPECT_TRUE(world.checker().violations().empty());
  // Reference: gather all shards then per-rank GEMM with that rank's B.
  for (int r = 0; r < R; ++r) {
    Tensor gathered = Tensor::Alloc(world.device(r), "ref_a",
                                    {cfg.m, cfg.k}, DType::kBF16);
    for (int p = 0; p < R; ++p) {
      Tensor dst = gathered.Slice(0, p * (cfg.m / R), cfg.m / R);
      CopyTensor(kernel.a_shards()[static_cast<size_t>(p)], dst);
    }
    // The gathered activation must match what the comm role produced.
    EXPECT_EQ(MaxAbsDiff(gathered, kernel.a_full()[static_cast<size_t>(r)]),
              0.0f)
        << "rank " << r << " gather mismatch";
    Tensor want = Tensor::Alloc(world.device(r), "ref_c", {cfg.m, cfg.n},
                                DType::kBF16);
    compute::GemmRef(gathered, kernel.b()[static_cast<size_t>(r)], want);
    EXPECT_LT(MaxAbsDiff(kernel.c()[static_cast<size_t>(r)], want), 1e-4f)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, AgGemmTest,
    ::testing::Values(AgGemmParam{2, CommResource::kSmPull},
                      AgGemmParam{2, CommResource::kSmPush},
                      AgGemmParam{2, CommResource::kDma},
                      AgGemmParam{4, CommResource::kSmPull},
                      AgGemmParam{4, CommResource::kSmPush},
                      AgGemmParam{4, CommResource::kDma},
                      AgGemmParam{8, CommResource::kDma}),
    [](const ::testing::TestParamInfo<AgGemmParam>& info) {
      const char* comm = info.param.comm == CommResource::kSmPull ? "pull"
                         : info.param.comm == CommResource::kSmPush
                             ? "push"
                             : "dma";
      return "R" + std::to_string(info.param.ranks) + "_" + comm;
    });

TEST(AgGemmListing, AcquireAndReleasePlacement) {
  World world(sim::MachineSpec::Test(2, 8), ExecMode::kFunctional);
  AgGemmConfig cfg;
  cfg.m = 64;
  cfg.k = 32;
  cfg.n = 32;
  cfg.gemm = compute::GemmTiling{32, 32, 16};
  cfg.comm_tile_m = 32;
  cfg.comm = CommResource::kSmPull;
  cfg.comm_sms = 2;
  AgGemm kernel(world, cfg);
  const std::string& listing = kernel.listing();
  // consumer_tile_wait (acquire) must appear before the acquire-load, and
  // the producer notify (release) after the pull.
  const size_t wait_pos = listing.find("consumer_tile_wait");
  const size_t load_pos = listing.find("ld.global.acquire.b128");
  const size_t pull_pos = listing.find("tile_pull_data");
  const size_t notify_pos = listing.find("producer_tile_notify");
  ASSERT_NE(wait_pos, std::string::npos);
  ASSERT_NE(load_pos, std::string::npos);
  ASSERT_NE(pull_pos, std::string::npos);
  ASSERT_NE(notify_pos, std::string::npos);
  EXPECT_LT(pull_pos, notify_pos);  // release after data movement
  EXPECT_LT(wait_pos, load_pos);    // acquire before consumer load
}

// ---------------------------------------------------------------------- //
// GEMM + ring ReduceScatter
// ---------------------------------------------------------------------- //

struct GemmRsParam {
  int ranks;
  bool dma_push;
};

class GemmRsTest : public ::testing::TestWithParam<GemmRsParam> {};

TEST_P(GemmRsTest, MatchesSerialReference) {
  const auto [R, dma] = GetParam();
  World world(sim::MachineSpec::Test(R, 16), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  GemmRsConfig cfg;
  cfg.m = 64 * R;
  cfg.k = 24;
  cfg.n = 40;
  cfg.gemm = compute::GemmTiling{32, 16, 8};
  cfg.rs_block_m = 32;
  cfg.comm_sms = 4;
  cfg.dma_push = dma;
  GemmRs kernel(world, cfg);
  Rng rng(37);
  for (int r = 0; r < R; ++r) {
    FillRandom(kernel.a()[static_cast<size_t>(r)], rng, 0.3f);
    FillRandom(kernel.b()[static_cast<size_t>(r)], rng, 0.3f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  EXPECT_TRUE(world.checker().violations().empty());
  // Reference: sum over ranks of a[p] @ b[p], row block r to rank r.
  const int64_t m_per = cfg.m / R;
  Tensor total = Tensor::Alloc(world.device(0), "ref_total",
                               {cfg.m, cfg.n}, DType::kBF16);
  Tensor tmp = Tensor::Alloc(world.device(0), "ref_tmp", {cfg.m, cfg.n},
                             DType::kBF16);
  FillConstant(total, 0.0f);
  for (int p = 0; p < R; ++p) {
    compute::GemmRef(kernel.a()[static_cast<size_t>(p)],
                     kernel.b()[static_cast<size_t>(p)], tmp);
    compute::AddTile(tmp, total, 0, cfg.m, 0, cfg.n, /*accumulate=*/true);
  }
  for (int r = 0; r < R; ++r) {
    Tensor want = total.Slice(0, r * m_per, m_per);
    EXPECT_LT(MaxAbsDiff(kernel.out()[static_cast<size_t>(r)], want), 1e-3f)
        << "rank " << r << (dma ? " (dma)" : " (sm)");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, GemmRsTest,
    ::testing::Values(GemmRsParam{2, false}, GemmRsParam{2, true},
                      GemmRsParam{4, false}, GemmRsParam{4, true},
                      GemmRsParam{8, false}, GemmRsParam{8, true}),
    [](const ::testing::TestParamInfo<GemmRsParam>& info) {
      return "R" + std::to_string(info.param.ranks) +
             (info.param.dma_push ? "_dma" : "_sm");
    });

TEST(GemmRsListing, ContainsPeerSignals) {
  World world(sim::MachineSpec::Test(2, 8), ExecMode::kFunctional);
  GemmRsConfig cfg;
  cfg.m = 128;
  cfg.k = 16;
  cfg.n = 16;
  cfg.gemm = compute::GemmTiling{32, 16, 8};
  cfg.rs_block_m = 32;
  cfg.comm_sms = 2;
  GemmRs kernel(world, cfg);
  EXPECT_NE(kernel.listing().find("peer_tile_wait"), std::string::npos);
  EXPECT_NE(kernel.listing().find("peer_tile_notify"), std::string::npos);
  EXPECT_NE(kernel.listing().find("producer_tile_notify"), std::string::npos);
}

// ---------------------------------------------------------------------- //
// AG + MoE (dynamic mapping)
// ---------------------------------------------------------------------- //

class AgMoeTest : public ::testing::TestWithParam<int> {};

TEST_P(AgMoeTest, MatchesGroupGemmReference) {
  const int R = GetParam();
  World world(sim::MachineSpec::Test(R, 16), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  AgMoeConfig cfg;
  cfg.m = 32 * R;
  cfg.hidden = 24;
  cfg.n = 32;
  cfg.num_experts = 4;
  cfg.topk = 2;
  cfg.gemm = compute::GemmTiling{16, 16, 8};
  cfg.comm_tile_m = 16;
  cfg.comm = CommResource::kSmPull;
  cfg.comm_sms = 4;
  Rng rng(41);
  compute::MoeRouting routing =
      compute::RandomRouting(cfg.m, cfg.num_experts, cfg.topk, rng);
  AgMoe kernel(world, cfg, routing);
  for (int r = 0; r < R; ++r) {
    FillRandom(kernel.token_shards()[static_cast<size_t>(r)], rng, 0.4f);
    FillRandom(kernel.weights()[static_cast<size_t>(r)], rng, 0.4f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  EXPECT_TRUE(world.checker().violations().empty());
  for (int r = 0; r < R; ++r) {
    Tensor gathered = Tensor::Alloc(world.device(r), "ref_t",
                                    {cfg.m, cfg.hidden}, DType::kBF16);
    for (int p = 0; p < R; ++p) {
      Tensor dst = gathered.Slice(0, p * (cfg.m / R), cfg.m / R);
      CopyTensor(kernel.token_shards()[static_cast<size_t>(p)], dst);
    }
    Tensor want = Tensor::Alloc(world.device(r), "ref_o",
                                {cfg.m * cfg.topk, cfg.n}, DType::kBF16);
    compute::GroupGemmRef(gathered, kernel.weights()[static_cast<size_t>(r)],
                          want, routing);
    EXPECT_LT(MaxAbsDiff(kernel.out()[static_cast<size_t>(r)], want), 1e-4f)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, AgMoeTest, ::testing::Values(2, 4),
                         ::testing::PrintToStringParamName());

TEST(AgMoeDma, DmaVariantAlsoCorrect) {
  const int R = 2;
  World world(sim::MachineSpec::Test(R, 16), ExecMode::kFunctional);
  AgMoeConfig cfg;
  cfg.m = 64;
  cfg.hidden = 16;
  cfg.n = 16;
  cfg.num_experts = 2;
  cfg.topk = 1;
  cfg.gemm = compute::GemmTiling{16, 16, 8};
  cfg.comm_tile_m = 16;
  cfg.comm = CommResource::kDma;
  Rng rng(43);
  compute::MoeRouting routing =
      compute::RandomRouting(cfg.m, cfg.num_experts, cfg.topk, rng);
  AgMoe kernel(world, cfg, routing);
  for (int r = 0; r < R; ++r) {
    FillRandom(kernel.token_shards()[static_cast<size_t>(r)], rng);
    FillRandom(kernel.weights()[static_cast<size_t>(r)], rng);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  Tensor gathered = Tensor::Alloc(world.device(0), "g",
                                  {cfg.m, cfg.hidden}, DType::kBF16);
  for (int p = 0; p < R; ++p) {
    Tensor dst = gathered.Slice(0, p * (cfg.m / R), cfg.m / R);
    CopyTensor(kernel.token_shards()[static_cast<size_t>(p)], dst);
  }
  Tensor want = Tensor::Alloc(world.device(0), "w",
                              {cfg.m * cfg.topk, cfg.n}, DType::kBF16);
  compute::GroupGemmRef(gathered, kernel.weights()[0], want, routing);
  EXPECT_LT(MaxAbsDiff(kernel.out()[0], want), 1e-4f);
}

// The dynamic wait tables, built by sorting each tile's channels, equal a
// reference built row by row through StaticMapping::WaitsForRows and a
// std::set, on seeded routings whose tiles span many channels.
TEST(DynamicWaitTables, MatchPerRowSetReference) {
  for (const int R : {2, 4}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      World world(sim::MachineSpec::Test(R, 16), ExecMode::kTimingOnly);
      Rng rng(seed);

      AgMoeConfig ag;
      ag.m = 128 * R;
      ag.hidden = 32;
      ag.n = 64;
      ag.num_experts = 4;
      ag.topk = 2;
      ag.gemm = compute::GemmTiling{32, 32, 16};
      ag.comm_tile_m = 8;
      ag.comm = CommResource::kSmPull;
      ag.comm_sms = 4;
      const compute::MoeRouting ag_routing =
          compute::RandomRouting(ag.m, ag.num_experts, ag.topk, rng);
      const AgMoe ag_kernel(world, ag, ag_routing);
      const StaticMapping map(ag.m, ag.comm_tile_m, R,
                              StaticMapping::ResolveChannelsPerRank(
                                  ag.m, ag.comm_tile_m, R, 0));
      const std::vector<compute::GroupBlock> blocks = compute::MakeGroupBlocks(
          ag_routing, ag.n, ag.gemm.bm, ag.gemm.bn);
      const DynamicMapping& dyn = ag_kernel.dynamic_mapping();
      ASSERT_EQ(dyn.num_tiles(), static_cast<int64_t>(blocks.size()));
      size_t longest = 0;
      for (size_t i = 0; i < blocks.size(); ++i) {
        const compute::GroupBlock& gb = blocks[i];
        std::set<int> channels;
        int64_t lo = ag.m, hi = 0;
        for (int r = 0; r < gb.rows; ++r) {
          const int token = ag_routing.token_of_sorted(gb.sorted_row_start + r);
          for (const ChannelWait& w : map.WaitsForRows(token, token + 1)) {
            channels.insert(w.channel);
          }
          lo = std::min<int64_t>(lo, token);
          hi = std::max<int64_t>(hi, token + 1);
        }
        std::vector<ChannelWait> want;
        for (int c : channels) {
          want.push_back(ChannelWait{c, map.TilesInChannel(c)});
        }
        const auto got = dyn.Waits(static_cast<int64_t>(i));
        EXPECT_EQ(std::vector<ChannelWait>(got.begin(), got.end()), want)
            << "R=" << R << " seed=" << seed << " tile " << i;
        EXPECT_EQ(dyn.ShapeRange(static_cast<int64_t>(i)).lo, std::min(lo, hi));
        EXPECT_EQ(dyn.ShapeRange(static_cast<int64_t>(i)).hi, hi);
        EXPECT_EQ(dyn.Rank(static_cast<int64_t>(i)), gb.expert);
        EXPECT_EQ(dyn.Channel(static_cast<int64_t>(i)),
                  want.empty() ? 0 : want.front().channel);
        longest = std::max(longest, want.size());
      }
      EXPECT_GT(longest, WaitList::inline_capacity());

      MoeRsConfig rs;
      rs.m = 64 * R;
      rs.k = 16;
      rs.hidden = 24;
      rs.num_experts = 4;
      rs.topk = 2;
      rs.gemm = compute::GemmTiling{16, 24, 8};
      rs.sorted_channel_rows = 8;
      rs.reduce_block_tokens = 16;
      rs.reduce_sms = 4;
      rs.rs_block_m = 32;
      rs.comm_sms = 4;
      const compute::MoeRouting rs_routing =
          compute::RandomRouting(rs.m, rs.num_experts, rs.topk, rng);
      const MoeRs rs_kernel(world, rs, rs_routing);
      const int64_t slots = rs.m * rs.topk;
      std::vector<uint64_t> thresholds(
          static_cast<size_t>((slots + rs.sorted_channel_rows - 1) /
                              rs.sorted_channel_rows),
          0);
      for (const compute::GroupBlock& gb : compute::MakeGroupBlocks(
               rs_routing, rs.hidden, rs.gemm.bm, rs.gemm.bn)) {
        if (gb.rows == 0) continue;
        const int64_t first = gb.sorted_row_start / rs.sorted_channel_rows;
        const int64_t last =
            (gb.sorted_row_start + gb.rows - 1) / rs.sorted_channel_rows;
        for (int64_t c = first; c <= last; ++c) {
          ++thresholds[static_cast<size_t>(c)];
        }
      }
      std::vector<int> inv_sorted(static_cast<size_t>(slots));
      for (int64_t pos = 0; pos < slots; ++pos) {
        inv_sorted[static_cast<size_t>(
            rs_routing.sorted_slots[static_cast<size_t>(pos)])] =
            static_cast<int>(pos);
      }
      const DynamicMapping& table = rs_kernel.reduce_wait_table();
      ASSERT_EQ(table.num_tiles(), rs.m / rs.reduce_block_tokens);
      longest = 0;
      for (int64_t ch = 0; ch < table.num_tiles(); ++ch) {
        std::set<int> channels;
        const int64_t t0 = ch * rs.reduce_block_tokens;
        for (int64_t t = t0; t < t0 + rs.reduce_block_tokens; ++t) {
          for (int kk = 0; kk < rs.topk; ++kk) {
            channels.insert(
                inv_sorted[static_cast<size_t>(t * rs.topk + kk)] /
                rs.sorted_channel_rows);
          }
        }
        std::vector<ChannelWait> want;
        for (int c : channels) {
          want.push_back(ChannelWait{c, thresholds[static_cast<size_t>(c)]});
        }
        const auto got = table.Waits(ch);
        EXPECT_EQ(std::vector<ChannelWait>(got.begin(), got.end()), want)
            << "R=" << R << " seed=" << seed << " chunk " << ch;
        EXPECT_EQ(table.Channel(ch), want.empty() ? 0 : want.front().channel);
        longest = std::max(longest, want.size());
      }
      EXPECT_GT(longest, WaitList::inline_capacity());
    }
  }
}

// ---------------------------------------------------------------------- //
// MoE part 2: GroupGEMM + TopkReduce + RS chain
// ---------------------------------------------------------------------- //

class MoeRsTest : public ::testing::TestWithParam<int> {};

TEST_P(MoeRsTest, ThreeStageChainMatchesReference) {
  const int R = GetParam();
  World world(sim::MachineSpec::Test(R, 24), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  MoeRsConfig cfg;
  cfg.m = 32 * R;
  cfg.k = 16;
  cfg.hidden = 24;
  cfg.num_experts = 4;
  cfg.topk = 2;
  cfg.gemm = compute::GemmTiling{16, 24, 8};
  cfg.sorted_channel_rows = 32;
  cfg.reduce_block_tokens = 16;
  cfg.reduce_sms = 4;
  cfg.rs_block_m = 32;
  cfg.comm_sms = 4;
  Rng rng(47);
  compute::MoeRouting routing =
      compute::RandomRouting(cfg.m, cfg.num_experts, cfg.topk, rng);
  MoeRs kernel(world, cfg, routing);
  for (int r = 0; r < R; ++r) {
    FillRandom(kernel.acts()[static_cast<size_t>(r)], rng, 0.3f);
    FillRandom(kernel.weights()[static_cast<size_t>(r)], rng, 0.3f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  EXPECT_TRUE(world.checker().violations().empty());
  // Reference: per rank expert GEMM -> weighted topk combine -> sum over
  // ranks -> row block r.
  const int64_t m_per = cfg.m / R;
  Tensor total = Tensor::Alloc(world.device(0), "ref_total",
                               {cfg.m, cfg.hidden}, DType::kBF16);
  FillConstant(total, 0.0f);
  for (int p = 0; p < R; ++p) {
    Tensor exp_out = Tensor::Alloc(world.device(p), "ref_exp",
                                   {cfg.m * cfg.topk, cfg.hidden},
                                   DType::kBF16);
    // acts are already in slot order: out[slot] = acts[slot] @ W[expert].
    for (int64_t slot = 0; slot < cfg.m * cfg.topk; ++slot) {
      const int e = routing.topk_ids[static_cast<size_t>(slot)];
      const Tensor w =
          kernel.weights()[static_cast<size_t>(p)].Select(0, e);
      for (int64_t c = 0; c < cfg.hidden; ++c) {
        float acc = 0.0f;
        for (int64_t x = 0; x < cfg.k; ++x) {
          acc += kernel.acts()[static_cast<size_t>(p)].at({slot, x}) *
                 w.at({x, c});
        }
        exp_out.at({slot, c}) = acc;
      }
    }
    Tensor combined = Tensor::Alloc(world.device(p), "ref_comb",
                                    {cfg.m, cfg.hidden}, DType::kBF16);
    compute::TopkReduceRef(exp_out, combined, routing.topk_weights, cfg.topk);
    compute::AddTile(combined, total, 0, cfg.m, 0, cfg.hidden,
                     /*accumulate=*/true);
  }
  for (int r = 0; r < R; ++r) {
    Tensor want = total.Slice(0, r * m_per, m_per);
    EXPECT_LT(MaxAbsDiff(kernel.out()[static_cast<size_t>(r)], want), 1e-3f)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, MoeRsTest, ::testing::Values(2, 4),
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------- //
// AG KV + flash attention (host primitives)
// ---------------------------------------------------------------------- //

class AgAttentionTest : public ::testing::TestWithParam<int> {};

TEST_P(AgAttentionTest, MatchesEagerReference) {
  const int R = GetParam();
  World world(sim::MachineSpec::Test(R, 16), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  AgAttentionConfig cfg;
  cfg.batch_heads = 2;
  cfg.seq = 32 * R;
  cfg.head_dim = 16;
  cfg.block_q = 16;
  cfg.block_kv = 16;
  AgAttention kernel(world, cfg);
  Rng rng(53);
  for (int r = 0; r < R; ++r) {
    FillRandom(kernel.q()[static_cast<size_t>(r)], rng, 0.4f);
    FillRandom(kernel.k_shards()[static_cast<size_t>(r)], rng, 0.4f);
    FillRandom(kernel.v_shards()[static_cast<size_t>(r)], rng, 0.4f);
  }
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  EXPECT_TRUE(world.checker().violations().empty());
  const int64_t s_per = cfg.seq / R;
  for (int r = 0; r < R; ++r) {
    // Build the full K/V on the host.
    Tensor kf = Tensor::Alloc(world.device(r), "kf",
                              {cfg.batch_heads, cfg.seq, cfg.head_dim},
                              DType::kBF16);
    Tensor vf = Tensor::Alloc(world.device(r), "vf",
                              {cfg.batch_heads, cfg.seq, cfg.head_dim},
                              DType::kBF16);
    for (int p = 0; p < R; ++p) {
      Tensor kd = kf.Slice(1, p * s_per, s_per);
      Tensor vd = vf.Slice(1, p * s_per, s_per);
      CopyTensor(kernel.k_shards()[static_cast<size_t>(p)], kd);
      CopyTensor(kernel.v_shards()[static_cast<size_t>(p)], vd);
    }
    Tensor want = Tensor::Alloc(world.device(r), "w",
                                {cfg.batch_heads, s_per, cfg.head_dim},
                                DType::kBF16);
    compute::AttentionRef(kernel.q()[static_cast<size_t>(r)], kf, vf, want);
    EXPECT_LT(MaxAbsDiff(kernel.out()[static_cast<size_t>(r)], want), 2e-4f)
        << "rank " << r;
  }
}

TEST_P(AgAttentionTest, TimingMatchesFunctional) {
  // The per-block FlashState vectors are payload state: a timing-only run
  // builds none of them and must still time the kernel exactly as a
  // functional run does.
  const int R = GetParam();
  auto run = [R](ExecMode mode) {
    World world(sim::MachineSpec::Test(R, 16), mode);
    AgAttentionConfig cfg;
    cfg.batch_heads = 2;
    cfg.seq = 32 * R;
    cfg.head_dim = 16;
    cfg.block_q = 16;
    cfg.block_kv = 16;
    AgAttention kernel(world, cfg);
    return world.RunSpmd(
        [&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  };
  EXPECT_EQ(run(ExecMode::kTimingOnly), run(ExecMode::kFunctional));
}

INSTANTIATE_TEST_SUITE_P(Worlds, AgAttentionTest, ::testing::Values(2, 4),
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------- //
// Overlap property: fused time < serial sum, >= max of parts
// ---------------------------------------------------------------------- //

TEST(OverlapProperty, FusedAgGemmBeatsSerialAndRespectsLowerBound) {
  const int R = 4;
  auto run = [&](bool overlap) {
    World world(sim::MachineSpec::Test(R, 16), ExecMode::kTimingOnly);
    AgGemmConfig cfg;
    cfg.m = 512 * R;
    cfg.k = 256;
    cfg.n = 256;
    cfg.gemm = compute::GemmTiling{64, 64, 32};
    cfg.comm_tile_m = 64;
    cfg.comm = CommResource::kSmPull;
    cfg.comm_sms = overlap ? 4 : 4;
    AgGemm kernel(world, cfg);
    return world.RunSpmd(
        [&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  };
  const sim::TimeNs fused = run(true);
  // Serial reference: comm then compute via collectives + standalone GEMM.
  World world(sim::MachineSpec::Test(R, 16), ExecMode::kTimingOnly);
  comm::SymTensor shards, fulls, bs, cs;
  for (int r = 0; r < R; ++r) {
    shards.push_back(Tensor::Alloc(world.device(r), "s", {512, 256},
                                   DType::kBF16));
    fulls.push_back(Tensor::Alloc(world.device(r), "f", {512 * R, 256},
                                  DType::kBF16));
    bs.push_back(
        Tensor::Alloc(world.device(r), "b", {256, 256}, DType::kBF16));
    cs.push_back(Tensor::Alloc(world.device(r), "c", {512 * R, 256},
                               DType::kBF16));
  }
  const sim::TimeNs serial = world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    co_await comm::AllGather(ctx, shards, fulls);
    compute::GemmOptions opt;
    opt.tiling = compute::GemmTiling{64, 64, 32};
    compute::LaunchGemm(ctx, *ctx.stream, fulls[static_cast<size_t>(ctx.rank)],
                        bs[static_cast<size_t>(ctx.rank)],
                        cs[static_cast<size_t>(ctx.rank)], opt);
    co_await ctx.stream->Synchronize();
  });
  EXPECT_LT(fused, serial) << "overlap must beat AG-then-GEMM";
}

TEST(Determinism, TileLinkKernelTimingIsReproducible) {
  auto run = []() {
    World world(sim::MachineSpec::Test(4, 16), ExecMode::kTimingOnly);
    GemmRsConfig cfg;
    cfg.m = 512;
    cfg.k = 128;
    cfg.n = 128;
    cfg.gemm = compute::GemmTiling{64, 64, 32};
    cfg.rs_block_m = 64;
    cfg.comm_sms = 4;
    GemmRs kernel(world, cfg);
    return world.RunSpmd(
        [&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tilelink::tl
