// Overlap generator (builder/tile_deps + builder/overlap_gen): every fused
// kernel is built spec -> OverlapPlanner -> BuildFromPlan.
//
// Golden suite: every planner-built kernel runs once, functionally, at 2x8
// (H800x16) and 3x2 (three nodes of two) with identically seeded inputs,
// and must reproduce its frozen makespan to the nanosecond and its frozen
// payload hash (FNV-1a-64 over the little-endian bytes of every rank's
// output floats, in rank order) bit-for-bit, with the consistency checker
// observing zero violations. The goldens were captured when each kernel
// still had a hand-written schedule and both schedules agreed on these
// values.
//
// Also here: OverlapSpec::Validate rejection messages (named fields),
// spec/plan Describe determinism, the generated ag_gemm_hier's degenerate
// honesty (1xN == ag_gemm, Nx1, 1x1) and the small-m column-split fix.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compute/moe_routing.h"
#include "runtime/world.h"
#include "sim/machine_spec.h"
#include "tensor/tensor_ops.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/builder/tile_deps.h"
#include "tilelink/kernels/ag_attention.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/ag_gemm_hier.h"
#include "tilelink/kernels/ag_moe.h"
#include "tilelink/kernels/gemm_hier_rs.h"
#include "tilelink/kernels/gemm_rs.h"
#include "tilelink/kernels/moe_rs.h"
#include "tilelink/multinode/multinode_tuning.h"
#include "tilelink/multinode/payload_validation.h"

namespace tilelink::tl {
namespace {

using rt::ExecMode;
using rt::RankCtx;
using rt::World;
using sim::MachineSpec;
using sim::TimeNs;

// ---------------------------------------------------------------------- //
// Topologies: 2x8 and 3x2. The flat kernels run with a reduced SM budget
// to keep the suite fast; the hierarchical kernel keeps the full H800
// budget (its roles want 20+8).
// ---------------------------------------------------------------------- //

MachineSpec TwoByEight(int sms = 0) {
  MachineSpec spec = MachineSpec::H800x16();
  if (sms > 0) spec.sms_per_device = sms;
  return spec;
}

MachineSpec ThreeByTwo(int sms = 0) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 6;
  spec.devices_per_node = 2;
  if (sms > 0) spec.sms_per_device = sms;
  return spec;
}

struct Golden {
  TimeNs makespan = 0;
  uint64_t payload_hash = 0;
};

// FNV-1a-64 over the little-endian bytes of every rank's output floats, in
// rank order.
uint64_t PayloadHash(World& world, comm::SymTensor& outs) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int r = 0; r < world.size(); ++r) {
    for (float f : outs[static_cast<size_t>(r)].buffer()->data()) {
      const uint32_t bits = std::bit_cast<uint32_t>(f);
      for (int byte = 0; byte < 4; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

// One functional run: the functional makespan is identical to the
// timing-only makespan (pinned elsewhere), so a single run yields both the
// nanosecond makespan and the payload bits.
template <typename Kernel>
void ExpectGolden(World& world, Kernel& kernel, comm::SymTensor& outs,
                  const Golden& golden, const std::string& label) {
  const TimeNs makespan = world.RunSpmd(
      [&](RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  EXPECT_EQ(makespan, golden.makespan) << label;
  EXPECT_EQ(PayloadHash(world, outs), golden.payload_hash)
      << label << ": payload differs";
  EXPECT_EQ(world.checker().violations().size(), 0u) << label;
}

// ---------------------------------------------------------------------- //
// Frozen makespans + payload hashes, all six planner-built kernels
// ---------------------------------------------------------------------- //

TEST(OverlapGenIdentity, AgGemm) {
  struct Case {
    const char* label;
    MachineSpec spec;
    CommResource comm;
    Golden golden;
  };
  const Case cases[] = {
      {"2x8 dma", TwoByEight(24), CommResource::kDma,
       {135436, 0xee013165f3ccb4c9ull}},
      {"2x8 sm_pull", TwoByEight(24), CommResource::kSmPull,
       {78019, 0xee013165f3ccb4c9ull}},
      {"2x8 sm_push", TwoByEight(24), CommResource::kSmPush,
       {78075, 0xee013165f3ccb4c9ull}},
      {"3x2 dma", ThreeByTwo(24), CommResource::kDma,
       {55598, 0xa40713647141cca7ull}},
      {"3x2 sm_pull", ThreeByTwo(24), CommResource::kSmPull,
       {38307, 0xa40713647141cca7ull}},
      {"3x2 sm_push", ThreeByTwo(24), CommResource::kSmPush,
       {38321, 0xa40713647141cca7ull}},
  };
  for (const Case& c : cases) {
    World world(c.spec, ExecMode::kFunctional);
    world.checker().set_enabled(true);
    AgGemmConfig cfg;
    cfg.m = 64 * c.spec.num_devices;
    cfg.k = 32;
    cfg.n = 48;
    cfg.gemm = compute::GemmTiling{32, 16, 16};
    cfg.comm_tile_m = 16;
    cfg.comm = c.comm;
    cfg.comm_sms = 4;
    AgGemm kernel(world, cfg);
    Rng rng(31);
    for (int r = 0; r < world.size(); ++r) {
      FillRandom(kernel.a_shards()[static_cast<size_t>(r)], rng, 0.5f);
      FillRandom(kernel.b()[static_cast<size_t>(r)], rng, 0.5f);
    }
    ExpectGolden(world, kernel, kernel.c(), c.golden,
                 std::string("ag_gemm ") + c.label);
  }
}

TEST(OverlapGenIdentity, GemmRs) {
  struct Case {
    const char* label;
    MachineSpec spec;
    bool dma_push;
    Golden golden;
  };
  const Case cases[] = {
      {"2x8 sm", TwoByEight(24), false, {107809, 0x23352d83b591b1e4ull}},
      {"2x8 dma_push", TwoByEight(24), true, {123731, 0x23352d83b591b1e4ull}},
      {"3x2 sm", ThreeByTwo(24), false, {41569, 0x512aec867e667d6bull}},
      {"3x2 dma_push", ThreeByTwo(24), true, {56522, 0x512aec867e667d6bull}},
  };
  for (const Case& c : cases) {
    World world(c.spec, ExecMode::kFunctional);
    world.checker().set_enabled(true);
    GemmRsConfig cfg;
    cfg.m = 64 * c.spec.num_devices;
    cfg.k = 24;
    cfg.n = 40;
    cfg.gemm = compute::GemmTiling{32, 16, 8};
    cfg.rs_block_m = 32;
    cfg.comm_sms = 4;
    cfg.dma_push = c.dma_push;
    GemmRs kernel(world, cfg);
    Rng rng(37);
    for (int r = 0; r < world.size(); ++r) {
      FillRandom(kernel.a()[static_cast<size_t>(r)], rng, 0.3f);
      FillRandom(kernel.b()[static_cast<size_t>(r)], rng, 0.3f);
    }
    ExpectGolden(world, kernel, kernel.out(), c.golden,
                 std::string("gemm_rs ") + c.label);
  }
}

TEST(OverlapGenIdentity, AgAttention) {
  const std::pair<MachineSpec, Golden> cases[] = {
      {TwoByEight(24), {269058, 0x0a8c1808395eae04ull}},
      {ThreeByTwo(24), {110010, 0xf20fbc1cb77d8f66ull}},
  };
  for (const auto& [spec, golden] : cases) {
    World world(spec, ExecMode::kFunctional);
    world.checker().set_enabled(true);
    AgAttentionConfig cfg;
    cfg.batch_heads = 2;
    cfg.seq = 32 * spec.num_devices;
    cfg.head_dim = 16;
    cfg.block_q = 16;
    cfg.block_kv = 16;
    AgAttention kernel(world, cfg);
    Rng rng(53);
    for (int r = 0; r < world.size(); ++r) {
      FillRandom(kernel.q()[static_cast<size_t>(r)], rng, 0.5f);
      FillRandom(kernel.k_shards()[static_cast<size_t>(r)], rng, 0.5f);
      FillRandom(kernel.v_shards()[static_cast<size_t>(r)], rng, 0.5f);
    }
    ExpectGolden(world, kernel, kernel.out(), golden,
                 "ag_attention " + std::to_string(spec.num_devices) +
                     " ranks");
  }
}

TEST(OverlapGenIdentity, AgMoe) {
  const std::pair<MachineSpec, Golden> cases[] = {
      {TwoByEight(24), {42622, 0x88062ee42a675387ull}},
      {ThreeByTwo(24), {22857, 0x9a905d83ba28dff4ull}},
  };
  for (const auto& [spec, golden] : cases) {
    const int64_t m = 32 * spec.num_devices;
    Rng routing_rng(41);
    const compute::MoeRouting routing =
        compute::RandomRouting(m, /*num_experts=*/4, /*topk=*/2, routing_rng);
    World world(spec, ExecMode::kFunctional);
    world.checker().set_enabled(true);
    AgMoeConfig cfg;
    cfg.m = m;
    cfg.hidden = 24;
    cfg.n = 32;
    cfg.num_experts = 4;
    cfg.topk = 2;
    cfg.gemm = compute::GemmTiling{16, 16, 8};
    cfg.comm_tile_m = 16;
    cfg.comm = CommResource::kSmPull;
    cfg.comm_sms = 4;
    AgMoe kernel(world, cfg, routing);
    Rng rng(43);
    for (int r = 0; r < world.size(); ++r) {
      FillRandom(kernel.token_shards()[static_cast<size_t>(r)], rng, 0.5f);
      FillRandom(kernel.weights()[static_cast<size_t>(r)], rng, 0.5f);
    }
    ExpectGolden(world, kernel, kernel.out(), golden,
                 "ag_moe " + std::to_string(spec.num_devices) + " ranks");
  }
}

TEST(OverlapGenIdentity, MoeRs) {
  const std::pair<MachineSpec, Golden> cases[] = {
      {TwoByEight(32), {106972, 0x0d81b4f62b9516aeull}},
      {ThreeByTwo(32), {41373, 0x4f37e3e56d7e3786ull}},
  };
  for (const auto& [spec, golden] : cases) {
    const int64_t m = 32 * spec.num_devices;
    Rng routing_rng(47);
    const compute::MoeRouting routing =
        compute::RandomRouting(m, /*num_experts=*/4, /*topk=*/2, routing_rng);
    World world(spec, ExecMode::kFunctional);
    world.checker().set_enabled(true);
    MoeRsConfig cfg;
    cfg.m = m;
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
    MoeRs kernel(world, cfg, routing);
    Rng rng(49);
    for (int r = 0; r < world.size(); ++r) {
      FillRandom(kernel.acts()[static_cast<size_t>(r)], rng, 0.5f);
      FillRandom(kernel.weights()[static_cast<size_t>(r)], rng, 0.5f);
    }
    ExpectGolden(world, kernel, kernel.out(), golden,
                 "moe_rs " + std::to_string(spec.num_devices) + " ranks");
  }
}

TEST(OverlapGenIdentity, GemmHierRs) {
  // cpb = m_per_rank / rs_block_m = 8 >= kMinRingChunksPerBlock: the
  // planner's column split stays at 1 (the split's own coverage is SmallM*
  // below).
  const std::pair<MachineSpec, Golden> cases[] = {
      {TwoByEight(), {43313, 0xa31f4ce168b2ea32ull}},
      {ThreeByTwo(), {24689, 0x38f4fd4b1b49da69ull}},
  };
  for (const auto& [spec, golden] : cases) {
    World world(spec, ExecMode::kFunctional);
    world.checker().set_enabled(true);
    GemmHierRsConfig cfg;
    cfg.m = 32 * spec.num_devices;
    cfg.k = 8;
    cfg.n = 8;
    cfg.gemm = compute::GemmTiling{4, 8, 4};
    cfg.rs_block_m = 4;
    cfg.nic_chunk_blocks = 2;
    GemmHierRs kernel(world, cfg);
    Rng rng(59);
    for (int r = 0; r < world.size(); ++r) {
      FillRandom(kernel.a()[static_cast<size_t>(r)], rng, 0.3f);
      FillRandom(kernel.b()[static_cast<size_t>(r)], rng, 0.3f);
    }
    ExpectGolden(world, kernel, kernel.out(), golden,
                 "gemm_hier_rs " + std::to_string(spec.num_devices) +
                     " ranks");
  }
}

// ---------------------------------------------------------------------- //
// OverlapSpec::Validate — one named-field message per rejection class
// ---------------------------------------------------------------------- //

OverlapSpec BaseSpec() {
  OverlapSpec spec;
  spec.kernel = "test_kernel";
  spec.spaces.push_back({"in", /*tiles=*/8, /*tile_rows=*/16,
                         /*resident=*/true});
  spec.spaces.push_back({"out", 8, 16, false});
  OverlapRoleSpec gemm;
  gemm.name = "gemm";
  gemm.kind = OverlapRoleKind::kCompute;
  gemm.reads.push_back({"in", 0, 0});
  gemm.writes.push_back({"out", 0, 0});
  spec.roles.push_back(gemm);
  return spec;
}

void ExpectRejects(const OverlapSpec& spec, const std::string& fragment) {
  const std::string err = spec.Validate();
  EXPECT_FALSE(err.empty()) << "expected rejection containing \"" << fragment
                            << "\"";
  EXPECT_NE(err.find(fragment), std::string::npos)
      << "error \"" << err << "\" does not name \"" << fragment << "\"";
}

TEST(OverlapSpecValidate, AcceptsWellFormedSpec) {
  EXPECT_EQ(BaseSpec().Validate(), "");
}

TEST(OverlapSpecValidate, RejectsDanglingTileReference) {
  OverlapSpec spec = BaseSpec();
  spec.roles[0].reads.push_back({"ghost", 0, 0});
  ExpectRejects(spec, "dangling tile reference");
  ExpectRejects(spec, "ghost");
}

TEST(OverlapSpecValidate, RejectsOutOfRangeTileRange) {
  OverlapSpec spec = BaseSpec();
  spec.roles[0].writes[0] = {"out", 4, 12};  // space has 8 tiles
  ExpectRejects(spec, "outside space");
}

TEST(OverlapSpecValidate, RejectsDuplicateSpaceAndRoleNames) {
  OverlapSpec dup_space = BaseSpec();
  dup_space.spaces.push_back({"in", 4, 8, true});
  ExpectRejects(dup_space, "duplicate space");
  OverlapSpec dup_role = BaseSpec();
  dup_role.roles.push_back(dup_role.roles[0]);
  ExpectRejects(dup_role, "duplicate role");
}

TEST(OverlapSpecValidate, RejectsNonCoveringConsumerRead) {
  OverlapSpec spec = BaseSpec();
  // A second non-resident space only half-written by the producer: a
  // consumer reading the whole space must be rejected.
  spec.spaces.push_back({"stage", 8, 16, false});
  spec.roles[0].writes.push_back({"stage", 0, 4});
  OverlapRoleSpec consumer;
  consumer.name = "consumer";
  consumer.kind = OverlapRoleKind::kCompute;
  consumer.reads.push_back({"stage", 0, 8});
  spec.roles.push_back(consumer);
  ExpectRejects(spec, "non-covering read");
  ExpectRejects(spec, "stage");
}

TEST(OverlapSpecValidate, RejectsCyclicProducerConsumerDependence) {
  OverlapSpec spec = BaseSpec();
  spec.spaces.push_back({"ping", 4, 16, false});
  spec.spaces.push_back({"pong", 4, 16, false});
  OverlapRoleSpec a;
  a.name = "a";
  a.kind = OverlapRoleKind::kCompute;
  a.reads.push_back({"pong", 0, 0});
  a.writes.push_back({"ping", 0, 0});
  OverlapRoleSpec b;
  b.name = "b";
  b.kind = OverlapRoleKind::kCompute;
  b.reads.push_back({"ping", 0, 0});
  b.writes.push_back({"pong", 0, 0});
  spec.roles.push_back(a);
  spec.roles.push_back(b);
  ExpectRejects(spec, "cyclic producer/consumer dependence");
}

TEST(OverlapSpecValidate, RejectsBadRoleKindGeometry) {
  OverlapSpec comm = BaseSpec();
  OverlapRoleSpec c;
  c.name = "reduce";
  c.kind = OverlapRoleKind::kComm;  // needs explicit work_items
  c.reads.push_back({"in", 0, 0});
  comm.roles.push_back(c);
  ExpectRejects(comm, "work_items");

  OverlapSpec ring = BaseSpec();
  OverlapRoleSpec r;
  r.name = "ring";
  r.kind = OverlapRoleKind::kRingReduceScatter;
  r.reads.push_back({"in", 0, 0});
  r.block_rows = 30;  // chunk_rows must divide block_rows
  r.chunk_rows = 4;
  ring.roles.push_back(r);
  ExpectRejects(ring, "chunk_rows");

  OverlapSpec rail = BaseSpec();
  OverlapRoleSpec n;
  n.name = "rail";
  n.kind = OverlapRoleKind::kNicRailPush;
  n.reads.push_back({"in", 0, 0});
  n.peers = 0;  // no rail geometry at all
  rail.roles.push_back(n);
  ExpectRejects(rail, "nic_rail_push");
}

// ---------------------------------------------------------------------- //
// Spec / plan round-trip determinism
// ---------------------------------------------------------------------- //

TEST(OverlapSpecRoundTrip, DescribeAndPlanAreDeterministic) {
  const MachineSpec spec = TwoByEight();
  auto build = [&]() {
    World world(spec, ExecMode::kTimingOnly);
    GemmHierRsConfig cfg;
    cfg.m = 32 * spec.num_devices;
    cfg.k = 8;
    cfg.n = 8;
    cfg.gemm = compute::GemmTiling{4, 8, 4};
    cfg.rs_block_m = 4;
    GemmHierRs kernel(world, cfg);
    EXPECT_EQ(kernel.overlap_spec().Validate(), "");
    return std::pair<std::string, std::string>(
        kernel.overlap_spec().Describe(), kernel.overlap_plan().Describe());
  };
  const auto [spec1, plan1] = build();
  const auto [spec2, plan2] = build();
  EXPECT_FALSE(spec1.empty());
  EXPECT_FALSE(plan1.empty());
  EXPECT_EQ(spec1, spec2);  // same config -> byte-identical spec
  EXPECT_EQ(plan1, plan2);  // same spec + budget -> byte-identical plan
  // Describe is a pure function: re-describing does not perturb anything.
  const auto [spec3, plan3] = build();
  EXPECT_EQ(spec1, spec3);
  EXPECT_EQ(plan1, plan3);
}

TEST(OverlapSpecRoundTrip, GeneratedHierSpecIsDeterministic) {
  const MachineSpec spec = TwoByEight();
  auto build = [&]() {
    World world(spec, ExecMode::kTimingOnly);
    AgGemmHierConfig cfg;
    cfg.m = 32 * spec.num_devices;
    cfg.k = 16;
    cfg.n = 16;
    cfg.gemm = compute::GemmTiling{8, 16, 8};
    cfg.comm_tile_m = 16;
    AgGemmHier kernel(world, cfg);
    EXPECT_EQ(kernel.overlap_spec().Validate(), "");
    return kernel.overlap_spec().Describe() + kernel.overlap_plan().Describe();
  };
  EXPECT_EQ(build(), build());
}

// ---------------------------------------------------------------------- //
// Generated ag_gemm_hier: degenerate honesty
// ---------------------------------------------------------------------- //

TEST(AgGemmHierDegenerate, OneNodeIsInfeasible) {
  // A single node runs the flat ag_gemm; the fused kernel needs a NIC hop.
  const MachineSpec spec = MachineSpec::H800x8();
  const MlpPartShape shape{2048, 4096, 1024};
  EXPECT_FALSE(multinode::AgGemmHierFeasible(
      spec, shape,
      multinode::DefaultAgGemmHierCandidate(shape, spec.num_devices)));
}

TEST(AgGemmHierDegenerate, OneDevicePerNodeStaysBitExact) {
  // N x 1: the ring degenerates to publish-only, the rail feeds the
  // consumer directly.
  MachineSpec nx1 = MachineSpec::H800x8();
  nx1.num_devices = 3;
  nx1.devices_per_node = 1;
  AgGemmHierConfig cfg;
  cfg.m = 32 * nx1.num_devices;
  cfg.k = 16;
  cfg.n = 16;
  cfg.gemm = compute::GemmTiling{8, 16, 8};
  cfg.comm_tile_m = 16;
  const multinode::PayloadReport nx1_report =
      multinode::ValidateAgGemmHier(nx1, cfg);
  EXPECT_TRUE(nx1_report.bit_exact);
  EXPECT_EQ(nx1_report.violations, 0u);
  EXPECT_GT(nx1_report.makespan, 0);
}

// ---------------------------------------------------------------------- //
// Small-m column split (the ring-chunk floor fix)
// ---------------------------------------------------------------------- //

TEST(AgGemmHierSmallM, PlannerSplitsColumnsAndStaysBitExact) {
  // m_per_rank / comm_tile_m = 2 < kMinRingChunksPerBlock: the planner
  // must split the K width so the ring still pipelines, and the split
  // schedule must stay checker-clean and bit-exact.
  const MachineSpec spec = TwoByEight();
  AgGemmHierConfig cfg;
  cfg.m = 16 * spec.num_devices;
  cfg.k = 16;
  cfg.n = 16;
  cfg.gemm = compute::GemmTiling{8, 16, 8};
  cfg.comm_tile_m = 8;
  {
    World world(spec, ExecMode::kTimingOnly);
    AgGemmHier kernel(world, cfg);
    EXPECT_GT(kernel.col_splits(), 1);
  }
  const multinode::PayloadReport report =
      multinode::ValidateAgGemmHier(spec, cfg);
  EXPECT_TRUE(report.bit_exact);
  EXPECT_EQ(report.violations, 0u);
}

TEST(AgGemmHierSmallM, EndToEndSmallMBeatsComposeViaColumnSplit) {
  // The e2e-scale regression from the ISSUE: qkv projection at a small
  // per-rank m (2048 rows over tp=16 -> 128 rows/rank). The default
  // candidate must trigger the column split and the fused kernel must
  // still beat the AllGather-then-GEMM compose.
  const MachineSpec spec = MachineSpec::H800x16();
  const MlpPartShape shape{2048, 4096, 1024};
  const TuneCandidate seed =
      multinode::DefaultAgGemmHierCandidate(shape, spec.num_devices);
  ASSERT_TRUE(multinode::AgGemmHierFeasible(spec, shape, seed));
  {
    World world(spec, ExecMode::kTimingOnly);
    AgGemmHier kernel(world, multinode::AgGemmHierFromCandidate(shape, seed));
    EXPECT_GT(kernel.col_splits(), 1);
  }
  const TimeNs fused = multinode::SimulateAgGemmHier(spec, shape, seed);
  const TimeNs compose = multinode::SimulateHierAgThenGemm(spec, shape, seed);
  std::printf("small-m fused %.3f ms vs compose %.3f ms\n", fused / 1e6,
              compose / 1e6);
  EXPECT_GT(fused, 0);
  EXPECT_LT(fused, compose);
}

}  // namespace
}  // namespace tilelink::tl
