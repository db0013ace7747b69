// Collectives vs. host references, several world sizes.
#include <gtest/gtest.h>

#include "comm/collectives.h"
#include "common/rng.h"
#include "runtime/world.h"
#include "tensor/tensor_ops.h"

namespace tilelink::comm {
namespace {

using rt::ExecMode;
using rt::RankCtx;
using rt::World;

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, AllGatherMatchesReference) {
  const int R = GetParam();
  World world(sim::MachineSpec::Test(R), ExecMode::kFunctional);
  const int64_t m_per = 16, n = 8;
  SymTensor shards, outs, expect;
  Rng rng(42);
  for (int r = 0; r < R; ++r) {
    shards.push_back(Tensor::Alloc(world.device(r), "shard", {m_per, n},
                                   DType::kBF16));
    outs.push_back(
        Tensor::Alloc(world.device(r), "out", {m_per * R, n}, DType::kBF16));
    expect.push_back(Tensor::Alloc(world.device(r), "exp", {m_per * R, n},
                                   DType::kBF16));
    FillRandom(shards.back(), rng);
  }
  AllGatherRef(shards, expect);
  const sim::TimeNs t = world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    co_await AllGather(ctx, shards, outs);
  });
  EXPECT_GT(t, 0);
  for (int r = 0; r < R; ++r) {
    EXPECT_EQ(MaxAbsDiff(outs[static_cast<size_t>(r)],
                         expect[static_cast<size_t>(r)]),
              0.0f)
        << "rank " << r;
  }
}

TEST_P(CollectiveTest, ReduceScatterMatchesReference) {
  const int R = GetParam();
  World world(sim::MachineSpec::Test(R), ExecMode::kFunctional);
  const int64_t m_per = 8, n = 12;
  SymTensor ins, outs, expect;
  Rng rng(7);
  for (int r = 0; r < R; ++r) {
    ins.push_back(
        Tensor::Alloc(world.device(r), "in", {m_per * R, n}, DType::kBF16));
    outs.push_back(
        Tensor::Alloc(world.device(r), "out", {m_per, n}, DType::kBF16));
    expect.push_back(
        Tensor::Alloc(world.device(r), "exp", {m_per, n}, DType::kBF16));
    FillRandom(ins.back(), rng);
  }
  ReduceScatterRef(ins, expect);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    co_await ReduceScatter(ctx, ins, outs);
  });
  for (int r = 0; r < R; ++r) {
    EXPECT_LT(MaxAbsDiff(outs[static_cast<size_t>(r)],
                         expect[static_cast<size_t>(r)]),
              1e-5f)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSweep, CollectiveTest,
                         ::testing::Values(2, 4, 8),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace tilelink::comm
