// Builder-layer tests.
//
// 1. Golden specs: every kernel built on FusedKernelBase through the
//    OverlapPlanner must produce a compiled kernel identical (roles, block
//    ranges, op sequence — all encoded in the listing) to the snapshot
//    captured from the pre-refactor seed (tests/golden_specs.inc).
// 2. ResourceBudget, OverlapPlanner role sizing and TileOrder unit
//    behavior.
// 3. Autotuner: picks the cost argmin on a toy space, prunes via the lower
//    bound, and rejects infeasible candidates.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compute/moe_routing.h"
#include "runtime/world.h"
#include "tilelink/builder/autotuner.h"
#include "tilelink/builder/kernel_tuning.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/kernels/ag_attention.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/ag_moe.h"
#include "tilelink/kernels/gemm_rs.h"
#include "tilelink/kernels/moe_rs.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {
namespace {

#include "golden_specs.inc"

using rt::ExecMode;
using rt::World;

// ---------------------------------------------------------------------- //
// Golden FusedKernelSpec snapshots (pre-refactor seed)
// ---------------------------------------------------------------------- //

AgGemmConfig SmallAgGemm(CommResource comm) {
  AgGemmConfig cfg;
  cfg.m = 256;
  cfg.k = 32;
  cfg.n = 48;
  cfg.gemm = compute::GemmTiling{32, 16, 16};
  cfg.comm_tile_m = 16;
  cfg.comm = comm;
  cfg.comm_sms = 4;
  return cfg;
}

TEST(GoldenSpecs, AgGemmAllResources) {
  const struct {
    const char* golden;
    CommResource comm;
  } variants[] = {{kAgGemmDmaGolden, CommResource::kDma},
                  {kAgGemmPullGolden, CommResource::kSmPull},
                  {kAgGemmPushGolden, CommResource::kSmPush}};
  for (const auto& v : variants) {
    World world(sim::MachineSpec::Test(4, 16), ExecMode::kFunctional);
    AgGemm kernel(world, SmallAgGemm(v.comm));
    EXPECT_EQ(kernel.listing(), v.golden);
  }
}

TEST(GoldenSpecs, GemmRsSmAndDma) {
  for (bool dma : {false, true}) {
    World world(sim::MachineSpec::Test(4, 16), ExecMode::kFunctional);
    GemmRsConfig cfg;
    cfg.m = 256;
    cfg.k = 24;
    cfg.n = 40;
    cfg.gemm = compute::GemmTiling{32, 16, 8};
    cfg.rs_block_m = 32;
    cfg.comm_sms = 4;
    cfg.dma_push = dma;
    GemmRs kernel(world, cfg);
    EXPECT_EQ(kernel.listing(), dma ? kGemmRsDmaGolden : kGemmRsSmGolden);
  }
}

TEST(GoldenSpecs, AgAttention) {
  World world(sim::MachineSpec::Test(2, 16), ExecMode::kFunctional);
  AgAttentionConfig cfg;
  cfg.batch_heads = 2;
  cfg.seq = 64;
  cfg.head_dim = 16;
  cfg.block_q = 16;
  cfg.block_kv = 16;
  AgAttention kernel(world, cfg);
  EXPECT_EQ(kernel.listing(), kAgAttentionGolden);
}

TEST(GoldenSpecs, AgMoePullAndDma) {
  {
    World world(sim::MachineSpec::Test(2, 16), ExecMode::kFunctional);
    AgMoeConfig cfg;
    cfg.m = 64;
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
    EXPECT_EQ(kernel.listing(), kAgMoePullGolden);
  }
  {
    World world(sim::MachineSpec::Test(2, 16), ExecMode::kFunctional);
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
    EXPECT_EQ(kernel.listing(), kAgMoeDmaGolden);
  }
}

TEST(GoldenSpecs, MoeRsThreeRoleChain) {
  World world(sim::MachineSpec::Test(2, 24), ExecMode::kFunctional);
  MoeRsConfig cfg;
  cfg.m = 64;
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
  EXPECT_EQ(kernel.listing(), kMoeRsGolden);
}

// Structural view of spec(): role names and block counts, independent of
// the listing format.
TEST(GoldenSpecs, SpecRolesAndBudgets) {
  World world(sim::MachineSpec::Test(4, 16), ExecMode::kFunctional);
  AgGemm kernel(world, SmallAgGemm(CommResource::kSmPull));
  const FusedKernelSpec& spec = kernel.spec();
  ASSERT_EQ(spec.roles.size(), 2u);
  EXPECT_EQ(spec.roles[0].name, "comm");
  EXPECT_EQ(spec.roles[0].blocks, 4);  // comm_sms
  EXPECT_EQ(spec.roles[1].name, "compute");
  EXPECT_EQ(spec.roles[1].blocks, 12);  // 16 SMs - 4 comm
  EXPECT_EQ(spec.total_blocks(), 16);
}

// Deliberate change vs the seed: SM-comm roles are capped by their comm-tile
// work, so comm_sms > tiles no longer strands idle comm blocks (gemm_rs and
// moe_rs always behaved this way; ag_gemm/ag_moe now do too).
TEST(GoldenSpecs, CommBlocksCappedByWork) {
  World world(sim::MachineSpec::Test(2, 16), ExecMode::kFunctional);
  AgGemmConfig cfg;
  cfg.m = 64;
  cfg.k = 32;
  cfg.n = 32;
  cfg.gemm = compute::GemmTiling{32, 16, 16};
  cfg.comm_tile_m = 16;  // 4 comm tiles total
  cfg.comm = CommResource::kSmPull;
  cfg.comm_sms = 12;  // more SMs than tiles
  AgGemm kernel(world, cfg);
  ASSERT_EQ(kernel.spec().roles.size(), 2u);
  EXPECT_EQ(kernel.spec().roles[0].blocks, 4);  // capped at 4 comm tiles
  EXPECT_EQ(kernel.spec().roles[1].blocks, 4);  // 2x2 gemm tiles
  EXPECT_EQ(kernel.spec().total_blocks(), 8);
}

// ---------------------------------------------------------------------- //
// ResourceBudget / OverlapPlanner role sizing
// ---------------------------------------------------------------------- //

TEST(ResourceBudget, CommClaimsThenComputeFillsRemainder) {
  ResourceBudget budget(132);
  EXPECT_EQ(budget.ClaimComm(20, /*work_items=*/1000), 20);
  EXPECT_EQ(budget.ClaimComm(16, /*work_items=*/4), 4);  // capped by work
  EXPECT_EQ(budget.remaining(), 108);
  EXPECT_EQ(budget.ClaimCompute(1 << 20), 108);  // fills what is left
  EXPECT_EQ(budget.remaining(), 0);
}

TEST(ResourceBudget, ComputeAlwaysGetsAtLeastOneBlock) {
  ResourceBudget budget(8);
  EXPECT_EQ(budget.ClaimComm(8, 100), 8);  // misconfigured: comm takes all
  EXPECT_EQ(budget.ClaimCompute(100), 1);  // compute still runs
  ResourceBudget b2(8);
  EXPECT_EQ(b2.ClaimCompute(0), 1);  // zero tiles still get one block
}

TEST(OverlapPlanner, BuildsRolesInOrder) {
  // Two comm roles claim their SMs first (the second capped by its work),
  // the compute role fills the remaining 18 of 24 SMs; each comm role gets
  // one NVLink channel per block, the compute role none.
  OverlapSpec overlap;
  overlap.kernel = "k";
  overlap.spaces = {{"in", 1, 1, /*resident=*/true},
                    {"out", 1000, 1, /*resident=*/false}};
  OverlapRoleSpec rs;
  rs.name = "rs";
  rs.kind = OverlapRoleKind::kComm;
  rs.want_sms = 4;
  rs.work_items = 100;
  rs.reads = {{"out"}};
  OverlapRoleSpec reduce = rs;
  reduce.name = "reduce";
  reduce.work_items = 2;
  OverlapRoleSpec gemm;
  gemm.name = "gemm";
  gemm.kind = OverlapRoleKind::kCompute;
  gemm.reads = {{"in"}};
  gemm.writes = {{"out"}};  // 1000 tiles
  overlap.roles = {rs, reduce, gemm};
  const OverlapPlan plan =
      OverlapPlanner(sim::MachineSpec::Test(2, /*sms=*/24)).Plan(overlap);
  std::vector<std::string> built;
  const FusedKernelSpec spec =
      BuildFromPlan(plan, [&](const PlannedRole& role) {
        built.push_back(role.name);
        TileProgramBuilder b;
        b.Add(ops::Store("s", nullptr));
        return b.Build();
      });
  EXPECT_EQ(built, (std::vector<std::string>{"rs", "reduce", "gemm"}));
  ASSERT_EQ(spec.roles.size(), 3u);
  EXPECT_EQ(spec.name, "k");
  EXPECT_EQ(spec.roles[0].name, "rs");
  EXPECT_EQ(spec.roles[0].blocks, 4);
  EXPECT_EQ(spec.roles[0].fabric_channels, 4);
  EXPECT_EQ(spec.roles[1].name, "reduce");
  EXPECT_EQ(spec.roles[1].blocks, 2);
  EXPECT_EQ(spec.roles[1].fabric_channels, 2);
  EXPECT_EQ(spec.roles[2].name, "gemm");
  EXPECT_EQ(spec.roles[2].blocks, 18);
  EXPECT_EQ(spec.roles[2].fabric_channels, 0);
  for (const Role& role : spec.roles) {
    EXPECT_EQ(role.fabric, FabricBinding::kNvlink);
  }
}

TEST(TileOrderTest, SwizzleRotatesSegments) {
  // 8 m-tiles, 2 per rank, 4 ranks.
  EXPECT_EQ(SwizzleTileM(0, 8, 2, /*rank=*/2, 4, TileOrder::kRowMajor), 0);
  EXPECT_EQ(SwizzleTileM(0, 8, 2, /*rank=*/2, 4, TileOrder::kOwnerFirst), 4);
  EXPECT_EQ(SwizzleTileM(0, 8, 2, /*rank=*/2, 4, TileOrder::kNextRankFirst),
            6);
  EXPECT_EQ(SwizzleTileM(7, 8, 2, /*rank=*/2, 4, TileOrder::kOwnerFirst), 3);
  // Degenerate: fewer m-tiles than ranks -> identity.
  EXPECT_EQ(SwizzleTileM(1, 2, 0, /*rank=*/3, 4, TileOrder::kOwnerFirst), 1);
  // Swizzle is a bijection over the tile range.
  std::map<int64_t, int> seen;
  for (int64_t t = 0; t < 8; ++t) {
    seen[SwizzleTileM(t, 8, 2, 1, 4, TileOrder::kNextRankFirst)]++;
  }
  EXPECT_EQ(seen.size(), 8u);
}

// ---------------------------------------------------------------------- //
// Autotuner
// ---------------------------------------------------------------------- //

TEST(AutotunerTest, PicksCostArgminOnToySpace) {
  TuningSpace space;
  space.CommTileM({16, 32, 64}).CommSms({2, 4});
  TuneCandidate base;
  base.comm = CommResource::kSmPull;  // keep the comm_sms axis live
  // Toy cost landscape with a unique interior optimum at (32, 4).
  auto eval = [](const TuneCandidate& c) -> sim::TimeNs {
    const int64_t tile_penalty = (c.comm_tile_m - 32) * (c.comm_tile_m - 32);
    const int64_t sm_penalty = (c.comm_sms - 4) * (c.comm_sms - 4) * 100;
    return 1000 + tile_penalty + sm_penalty;
  };
  const TuneResult result = Autotuner().Search(space, base, eval);
  EXPECT_EQ(result.best.comm_tile_m, 32);
  EXPECT_EQ(result.best.comm_sms, 4);
  EXPECT_EQ(result.best_cost, 1000);
  // 6 enumerated candidates plus the out-of-space base config, which the
  // tuner always evaluates so a search can never return worse than its seed.
  EXPECT_EQ(result.evaluated.size(), 7u);
}

TEST(AutotunerTest, LowerBoundPrunesWithoutChangingArgmin) {
  TuningSpace space;
  space.CommTileM({16, 32, 64, 128});
  TuneCandidate base;
  int evals = 0;
  auto eval = [&evals](const TuneCandidate& c) -> sim::TimeNs {
    ++evals;
    return c.comm_tile_m;  // 16 is the optimum
  };
  // Exact bound: everything after the first candidate (ascending axis)
  // gets pruned.
  auto bound = [](const TuneCandidate& c) -> sim::TimeNs {
    return c.comm_tile_m;
  };
  const TuneResult result = Autotuner().Search(space, base, eval, bound);
  EXPECT_EQ(result.best.comm_tile_m, 16);
  EXPECT_EQ(result.best_cost, 16);
  EXPECT_EQ(evals, 1);
  EXPECT_EQ(result.pruned, 3);
}

TEST(AutotunerTest, SkipsInfeasibleCandidates) {
  TuningSpace space;
  space.CommTileM({16, 32, 64});
  TuneCandidate base;
  base.comm_tile_m = 64;  // inside the space: no extra seed evaluation
  auto eval = [](const TuneCandidate& c) -> sim::TimeNs {
    if (c.comm_tile_m != 32) return Autotuner::kInfeasible;
    return 7;
  };
  const TuneResult result = Autotuner().Search(space, base, eval);
  EXPECT_EQ(result.best.comm_tile_m, 32);
  EXPECT_EQ(result.best_cost, 7);
  EXPECT_EQ(result.infeasible, 2);
}

TEST(AutotunerTest, DmaCollapsesCommSmAxis) {
  TuningSpace space;
  space.CommSms({2, 4, 8}).Resources({CommResource::kSmPull,
                                      CommResource::kDma});
  TuneCandidate base;
  const std::vector<TuneCandidate> all = space.Enumerate(base);
  int dma = 0, sm = 0;
  for (const TuneCandidate& c : all) {
    (c.comm == CommResource::kDma ? dma : sm)++;
  }
  EXPECT_EQ(sm, 3);   // pull x 3 comm_sms
  EXPECT_EQ(dma, 1);  // comm_sms axis collapsed
}

// The analytic bounds must never exceed the simulated time, or pruning
// could discard the argmin (this caught an uncapped comm-SM claim once).
TEST(AutotunerTest, LowerBoundsAreSound) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  const MlpPartShape shape{512, 128, 2048};
  TuneCandidate base;
  base.gemm = compute::GemmTiling{32, 32, 16};
  TuningSpace space;
  space.CommTileM({16, 32, 64, 128})
      .CommSms({2, 4, 8, 15})
      .Resources({CommResource::kSmPull, CommResource::kSmPush,
                  CommResource::kDma});
  const KernelFamily ag_family = AgGemmFamily(spec, shape);
  const KernelFamily rs_family = GemmRsFamily(spec, shape);
  for (const TuneCandidate& c : space.Enumerate(base)) {
    const sim::TimeNs ag = SimulateAgGemm(spec, shape, c);
    if (ag != Autotuner::kInfeasible) {
      EXPECT_LE(ag_family.lower_bound(c), ag) << c.Describe();
    }
    const sim::TimeNs rs = SimulateGemmRs(spec, shape, c);
    if (rs != Autotuner::kInfeasible) {
      EXPECT_LE(rs_family.lower_bound(c), rs) << c.Describe();
    }
  }
}

// End-to-end on the real simulator, small shape: the tuner's argmin must
// match a brute-force sweep of the same space.
TEST(AutotunerTest, MatchesBruteForceOnSimulatedAgGemm) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  const MlpPartShape shape{256, 64, 64};
  TuneCandidate base;
  base.gemm = compute::GemmTiling{32, 32, 16};
  TuningSpace space;
  space.CommTileM({16, 32, 64})
      .CommSms({2, 4})
      .Resources({CommResource::kSmPull, CommResource::kDma});
  KernelFamily family = AgGemmFamily(spec, shape);
  family.seed = base;
  family.space = space;
  const TuneResult tuned = Tune(family);
  sim::TimeNs brute_best = Autotuner::kInfeasible;
  for (const TuneCandidate& c : space.Enumerate(base)) {
    const sim::TimeNs t = SimulateAgGemm(spec, shape, c);
    if (t != Autotuner::kInfeasible) brute_best = std::min(brute_best, t);
  }
  EXPECT_EQ(tuned.best_cost, brute_best);
  EXPECT_EQ(SimulateAgGemm(spec, shape, tuned.best), tuned.best_cost);
}

}  // namespace
}  // namespace tilelink::tl
