// Multi-node fabric subsystem: hierarchical vs flat collectives, DP
// gradient sync, fabric channel budgets, the NIC-knob tuning hooks, and the
// functional payload mode (bit-exact data movement validated end-to-end by
// the consistency checker, plus §4.2 fault injection on the NIC rail).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/machine_spec.h"
#include "sim/simulator.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/kernels/gemm_rs.h"
#include "tilelink/multinode/hier_collectives.h"
#include "tilelink/multinode/multinode_tuning.h"
#include "tilelink/multinode/payload_validation.h"

namespace tilelink::multinode {
namespace {

using sim::MachineSpec;
using sim::TimeNs;

MachineSpec TwoNodeSpec(int per_node) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 2 * per_node;
  spec.devices_per_node = per_node;
  return spec;
}

// ---------------------------------------------------------------------------
// InOrderSignal
// ---------------------------------------------------------------------------

TEST(InOrderSignal, PublishesOnlyContiguousPrefix) {
  sim::Simulator sim;
  tl::InOrderSignal sig(&sim, "t");
  sig.Complete(1, 4);  // out of order: nothing published yet
  EXPECT_EQ(sig.tiles_arrived().value(), 0u);
  sig.Complete(2, 4);
  EXPECT_EQ(sig.tiles_arrived().value(), 0u);
  sig.Complete(0, 4);  // prefix 0..2 complete
  EXPECT_EQ(sig.tiles_arrived().value(), 12u);
  sig.Complete(3, 2);
  EXPECT_EQ(sig.tiles_arrived().value(), 14u);
}

// ---------------------------------------------------------------------------
// ResourceBudget fabric channels
// ---------------------------------------------------------------------------

TEST(ResourceBudget, FabricChannelsClampClaims) {
  tl::ResourceBudget budget(132);
  budget.SetFabricChannels(tl::FabricBinding::kNic, 16);
  EXPECT_EQ(budget.ClaimFabric(tl::FabricBinding::kNic, 12), 12);
  EXPECT_EQ(budget.ClaimFabric(tl::FabricBinding::kNic, 12), 4);  // clamped
  // Exhausted budget still grants one channel so the role makes progress.
  EXPECT_EQ(budget.ClaimFabric(tl::FabricBinding::kNic, 4), 1);
  // Unlimited fabric: grants verbatim.
  EXPECT_EQ(budget.ClaimFabric(tl::FabricBinding::kNvlink, 64), 64);
}

TEST(ResourceBudget, ForDeviceUsesSpecBudgets) {
  MachineSpec spec = MachineSpec::H800x8();
  tl::ResourceBudget budget = tl::ResourceBudget::ForDevice(spec);
  EXPECT_EQ(budget.total(), spec.sms_per_device);
  // An oversized claim is granted exactly the fabric's capacity; NVLink
  // is unlimited and grants verbatim.
  constexpr int kHuge = 1 << 20;
  EXPECT_EQ(budget.ClaimFabric(tl::FabricBinding::kNic, kHuge),
            spec.nic_queue_pairs);
  EXPECT_EQ(budget.ClaimFabric(tl::FabricBinding::kCopyEngine, kHuge),
            spec.copy_engines_per_device);
  EXPECT_EQ(budget.ClaimFabric(tl::FabricBinding::kNvlink, kHuge), kHuge);
}

TEST(FabricBinding, NamesAndResourceMapping) {
  EXPECT_STREQ(tl::FabricBindingName(tl::FabricBinding::kNic), "nic");
  EXPECT_EQ(tl::FabricForResource(tl::CommResource::kSmPull),
            tl::FabricBinding::kNvlink);
  EXPECT_EQ(tl::FabricForResource(tl::CommResource::kDma),
            tl::FabricBinding::kCopyEngine);
}

// ---------------------------------------------------------------------------
// Hierarchical vs flat collectives
// ---------------------------------------------------------------------------

TEST(HierCollectives, HierarchicalAllGatherBeatsFlatAtTwoByEight) {
  const MachineSpec spec = TwoNodeSpec(8);
  const HierConfig cfg;
  // Paper-scale shard: 32 tiles x 512 KiB = 16 MiB per rank.
  const TimeNs hier = SimulateHierAllGather(spec, 32, 512 << 10, cfg);
  const TimeNs flat = SimulateFlatAllGather(spec, 32, 512 << 10, cfg);
  std::printf("AG 2x8: hier %.3f ms, flat %.3f ms\n", hier / 1e6,
              flat / 1e6);
  EXPECT_GT(hier, 0);
  EXPECT_LT(hier, flat);
  // The flat ring pushes (R-1)/R of the volume through the two NIC hops;
  // hierarchy should win by a wide margin, not a rounding error.
  EXPECT_LT(static_cast<double>(hier), 0.7 * static_cast<double>(flat));
}

TEST(HierCollectives, HierarchicalReduceScatterBeatsFlatAtTwoByEight) {
  const MachineSpec spec = TwoNodeSpec(8);
  const HierConfig cfg;
  // RS input: one tile per destination rank per tile-slot.
  const TimeNs hier = SimulateHierReduceScatter(spec, 32, 512 << 10, cfg);
  const TimeNs flat = SimulateFlatReduceScatter(spec, 32, 512 << 10, cfg);
  std::printf("RS 2x8: hier %.3f ms, flat %.3f ms\n", hier / 1e6,
              flat / 1e6);
  EXPECT_GT(hier, 0);
  EXPECT_LT(static_cast<double>(hier), 0.7 * static_cast<double>(flat));
}

TEST(HierCollectives, SingleNodeDegeneratesWithoutDeadlock) {
  MachineSpec spec = MachineSpec::Test(4);
  const HierConfig cfg;
  const TimeNs ag = SimulateHierAllGather(spec, 8, 1 << 20, cfg);
  const TimeNs rs = SimulateHierReduceScatter(spec, 8, 1 << 20, cfg);
  EXPECT_GT(ag, 0);
  EXPECT_GT(rs, 0);
}

// Degenerate single-node topology: with num_nodes() == 1 the hierarchical
// collectives skip the rail stage entirely (no self-exchange over the NIC),
// leaving exactly the flat single-stage NVLink ring — the makespans must be
// identical, not merely close.
TEST(HierCollectives, SingleNodeHierMatchesFlatTiming) {
  const MachineSpec spec = MachineSpec::H800x8();  // 1x8
  const HierConfig cfg;
  EXPECT_EQ(SimulateHierAllGather(spec, 16, 256 << 10, cfg),
            SimulateFlatAllGather(spec, 16, 256 << 10, cfg));
  EXPECT_EQ(SimulateHierReduceScatter(spec, 16, 256 << 10, cfg),
            SimulateFlatReduceScatter(spec, 16, 256 << 10, cfg));
}

TEST(HierCollectives, DeterministicAcrossRuns) {
  const MachineSpec spec = TwoNodeSpec(4);
  const HierConfig cfg;
  const TimeNs a = SimulateHierAllGather(spec, 16, 256 << 10, cfg);
  const TimeNs b = SimulateHierAllGather(spec, 16, 256 << 10, cfg);
  EXPECT_EQ(a, b);
}

TEST(HierCollectives, AllGatherRespectsWireLowerBound) {
  const MachineSpec spec = TwoNodeSpec(8);
  const HierConfig cfg;
  const int64_t tiles = 32;
  const uint64_t tile_bytes = 512 << 10;
  const TimeNs hier = SimulateHierAllGather(spec, tiles, tile_bytes, cfg);
  // Rail: the full shard crosses the NIC once. Ring: each rank forwards
  // (D-1) blocks of 2 shards over NVLink. The makespan cannot beat either.
  const double shard = static_cast<double>(tiles * tile_bytes);
  const TimeNs rail_floor = static_cast<TimeNs>(shard / spec.nic_gbps);
  const TimeNs ring_floor =
      static_cast<TimeNs>(7 * 2 * shard / spec.nvlink_gbps);
  EXPECT_GE(hier, std::max(rail_floor, ring_floor));
}

// ---------------------------------------------------------------------------
// DP gradient sync
// ---------------------------------------------------------------------------

TEST(DpAllReduce, TracksAnalyticWireTimeForLargeBuffers) {
  const MachineSpec spec = TwoNodeSpec(8);
  tl::TuneCandidate c;
  const uint64_t bytes = 128ull << 20;  // 128 MiB gradient per rank
  const TimeNs t = SimulateDpSync(spec, bytes, c);
  // RS sends B/2, AG sends B/2: ~B bytes per NIC port per direction.
  const double wire = static_cast<double>(bytes) / spec.nic_gbps;
  std::printf("DP sync 128MiB: %.3f ms (wire floor %.3f ms)\n", t / 1e6,
              wire / 1e6);
  EXPECT_GT(static_cast<double>(t), wire);
  EXPECT_LT(static_cast<double>(t), 1.5 * wire);
}

TEST(DpAllReduce, StagingDepthHidesMessageLatency) {
  const MachineSpec spec = TwoNodeSpec(8);
  // Latency-dominated regime: many small NIC messages.
  tl::TuneCandidate shallow;
  shallow.nic_chunk_tiles = 1;
  shallow.staging_depth = 1;
  tl::TuneCandidate deep = shallow;
  deep.staging_depth = 8;
  const uint64_t bytes = 16ull << 20;
  const TimeNs t_shallow = SimulateDpSync(spec, bytes, shallow);
  const TimeNs t_deep = SimulateDpSync(spec, bytes, deep);
  std::printf("DP sync staging: depth1 %.3f ms, depth8 %.3f ms\n",
              t_shallow / 1e6, t_deep / 1e6);
  EXPECT_LT(t_deep, t_shallow);
}

TEST(DpAllReduce, StagingDepthClampedByNicChannelBudget) {
  MachineSpec spec = TwoNodeSpec(8);
  spec.nic_queue_pairs = 4;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  HierConfig cfg;
  cfg.staging_depth = 64;
  DpAllReduce ar(world, 32, 1 << 20, cfg);
  // 2 phases x 1 peer = 2 concurrent exchanges share 4 queue pairs.
  EXPECT_EQ(ar.effective_staging_depth(), 2);
}

TEST(DpAllReduce, SingleNodeIsSetupOnly) {
  MachineSpec spec = MachineSpec::Test(4);
  tl::TuneCandidate c;
  const TimeNs t = SimulateDpSync(spec, 64 << 20, c);
  EXPECT_LT(t, sim::Us(200));  // rendezvous + setup, no wire time
}

TEST(DpSync, TunedConfigNeverLosesToSeed) {
  const MachineSpec spec = TwoNodeSpec(8);
  tl::TuneCandidate base;
  const uint64_t bytes = 48ull << 20;
  const TimeNs seed_cost = SimulateDpSync(spec, bytes, base);
  tl::KernelFamily family = DpSyncFamily(spec, bytes);
  family.seed = base;
  const tl::TuneResult r = tl::Tune(family);
  EXPECT_LE(r.best_cost, seed_cost);
  EXPECT_EQ(r.best_cost, SimulateDpSync(spec, bytes, r.best));
}

// ---------------------------------------------------------------------------
// Functional payload mode: bit-exact data movement, consistency-checked
// ---------------------------------------------------------------------------

TEST(PayloadMode, HierAllGatherBitExactAtTwoByEight) {
  const PayloadReport r =
      ValidateHierAllGather(TwoNodeSpec(8), 6, 16 << 10, 8, HierConfig());
  EXPECT_TRUE(r.bit_exact);
  EXPECT_EQ(r.violations, 0u);
}

TEST(PayloadMode, HierReduceScatterBitExactAtTwoByEight) {
  const PayloadReport r =
      ValidateHierReduceScatter(TwoNodeSpec(8), 6, 16 << 10, 8, HierConfig());
  EXPECT_TRUE(r.bit_exact);
  EXPECT_EQ(r.violations, 0u);
}

TEST(PayloadMode, DpAllReduceBitExactAtTwoByEight) {
  // 7 tiles across 2 nodes exercises the uneven remainder block (3 + 4).
  const PayloadReport r =
      ValidateDpAllReduce(TwoNodeSpec(8), 7, 16 << 10, 8, HierConfig());
  EXPECT_TRUE(r.bit_exact);
  EXPECT_EQ(r.violations, 0u);
}

TEST(PayloadMode, FlatCollectivesBitExactAtTwoByFour) {
  const MachineSpec spec = TwoNodeSpec(4);
  const HierConfig cfg;
  const PayloadReport ag = ValidateFlatAllGather(spec, 6, 16 << 10, 8, cfg);
  EXPECT_TRUE(ag.bit_exact);
  EXPECT_EQ(ag.violations, 0u);
  const PayloadReport rs =
      ValidateFlatReduceScatter(spec, 6, 16 << 10, 8, cfg);
  EXPECT_TRUE(rs.bit_exact);
  EXPECT_EQ(rs.violations, 0u);
}

// Chunk boundaries that straddle segment/group edges: a chunk size that
// does not divide the shard exercises the segmented copy-run construction.
TEST(PayloadMode, RaggedChunkSizesStayBitExact) {
  const MachineSpec spec = TwoNodeSpec(4);
  HierConfig cfg;
  cfg.nic_chunk_tiles = 3;
  cfg.intra_chunk_tiles = 5;
  const PayloadReport ag = ValidateHierAllGather(spec, 7, 16 << 10, 4, cfg);
  EXPECT_TRUE(ag.bit_exact);
  EXPECT_EQ(ag.violations, 0u);
  const PayloadReport rs =
      ValidateHierReduceScatter(spec, 7, 16 << 10, 4, cfg);
  EXPECT_TRUE(rs.bit_exact);
  EXPECT_EQ(rs.violations, 0u);
}

// Three nodes exercise the multi-rail-peer paths the 2x8 cases cannot:
// per-source segment ordering (SourceIndex/SourceNode), concurrent rail
// streams per sender, and three-way DP groups.
TEST(PayloadMode, ThreeNodeTopologyStaysBitExact) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 6;
  spec.devices_per_node = 2;
  const HierConfig cfg;
  const PayloadReport ag = ValidateHierAllGather(spec, 5, 16 << 10, 4, cfg);
  EXPECT_TRUE(ag.bit_exact);
  EXPECT_EQ(ag.violations, 0u);
  const PayloadReport rs =
      ValidateHierReduceScatter(spec, 5, 16 << 10, 4, cfg);
  EXPECT_TRUE(rs.bit_exact);
  EXPECT_EQ(rs.violations, 0u);
  const PayloadReport ar = ValidateDpAllReduce(spec, 8, 16 << 10, 4, cfg);
  EXPECT_TRUE(ar.bit_exact);
  EXPECT_EQ(ar.violations, 0u);
  // The injected fault stays a *single* chunk even with two rail peers per
  // sender (scoped to the first rail exchange) and is still caught.
  sim::FaultPlan fault;
  fault.ReorderRailChunk(/*src_rank=*/0, /*chunk=*/0);
  const PayloadReport f =
      ValidateHierAllGather(spec, 5, 16 << 10, 4, cfg, &fault);
  EXPECT_GE(f.violations, 1u);
}

// Degenerate topologies keep the functional guarantees: one node (ring
// only), one rank per node (rail only), and a single rank.
TEST(PayloadMode, DegenerateTopologiesStayBitExact) {
  const HierConfig cfg;
  for (const MachineSpec& spec :
       {MachineSpec::Test(4), TwoNodeSpec(1), MachineSpec::Test(1)}) {
    const PayloadReport ag = ValidateHierAllGather(spec, 6, 16 << 10, 4, cfg);
    EXPECT_TRUE(ag.bit_exact) << spec.num_devices << "x"
                              << spec.devices_per_node;
    EXPECT_EQ(ag.violations, 0u);
    const PayloadReport rs =
        ValidateHierReduceScatter(spec, 6, 16 << 10, 4, cfg);
    EXPECT_TRUE(rs.bit_exact) << spec.num_devices << "x"
                              << spec.devices_per_node;
    EXPECT_EQ(rs.violations, 0u);
    const PayloadReport ar = ValidateDpAllReduce(spec, 6, 16 << 10, 4, cfg);
    EXPECT_TRUE(ar.bit_exact);
    EXPECT_EQ(ar.violations, 0u);
  }
}

// Payload mode moves data and probes the checker but adds no simulated
// time: the functional makespan equals the timing-only one exactly.
TEST(PayloadMode, PayloadDoesNotPerturbTiming) {
  const MachineSpec spec = TwoNodeSpec(4);
  const HierConfig cfg;
  EXPECT_EQ(ValidateHierAllGather(spec, 8, 64 << 10, 4, cfg).makespan,
            SimulateHierAllGather(spec, 8, 64 << 10, cfg));
  EXPECT_EQ(ValidateHierReduceScatter(spec, 8, 64 << 10, 4, cfg).makespan,
            SimulateHierReduceScatter(spec, 8, 64 << 10, cfg));
  rt::World timing(spec, rt::ExecMode::kTimingOnly);
  DpAllReduce ar(timing, 8, 64 << 10, cfg);
  const TimeNs dp_timing = timing.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await ar.Run(ctx); });
  EXPECT_EQ(ValidateDpAllReduce(spec, 8, 64 << 10, 4, cfg).makespan,
            dp_timing);
}

// ---------------------------------------------------------------------------
// §4.2 fault injection on the NIC rail stage
// ---------------------------------------------------------------------------

TEST(FaultInjection, EagerRailPublishCaughtOnHierAllGather) {
  sim::FaultPlan fault;
  fault.ReorderRailChunk(/*src_rank=*/0, /*chunk=*/0);
  const PayloadReport r = ValidateHierAllGather(TwoNodeSpec(8), 6, 16 << 10,
                                                8, HierConfig{}, &fault);
  EXPECT_GE(r.violations, 1u);
}

TEST(FaultInjection, EagerRailPublishCaughtOnHierReduceScatter) {
  sim::FaultPlan fault;
  fault.ReorderRailChunk(/*src_rank=*/3, /*chunk=*/1);
  const PayloadReport r = ValidateHierReduceScatter(
      TwoNodeSpec(8), 12, 16 << 10, 8, HierConfig{}, &fault);
  EXPECT_GE(r.violations, 1u);
}

TEST(FaultInjection, EagerRailPublishCaughtOnDpAllReduce) {
  sim::FaultPlan fault;
  fault.ReorderRailChunk(/*src_rank=*/8, /*chunk=*/0);
  const PayloadReport r = ValidateDpAllReduce(TwoNodeSpec(8), 16, 16 << 10, 8,
                                              HierConfig{}, &fault);
  EXPECT_GE(r.violations, 1u);
}

// ---------------------------------------------------------------------------
// Fault plans: retry, failover, determinism
// ---------------------------------------------------------------------------

// A NIC edge that drops every attempt must surface as a FaultError naming
// the link role, sending rank, and chunk — not as a bare deadlock.
TEST(FaultPlan, ExhaustedRetriesSurfaceNamedFaultError) {
  const MachineSpec spec = TwoNodeSpec(8);
  sim::FaultPlan plan;
  // Drop every attempt rank 0's rail stream can make toward its rail peer
  // (2 chunks x 3 attempts each fit in the first 8 edge ordinals).
  for (uint64_t ord = 0; ord < 8; ++ord) {
    plan.DropTransfer("nic", /*src=*/0, /*dst=*/8, ord);
  }
  sim::RetryPolicy rp;
  rp.max_retries = 2;
  plan.set_retry(rp);
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  world.set_fault_plan(&plan);
  HierAllGather ag(world, 6, 16 << 10, HierConfig{});
  try {
    world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
      co_await ag.Run(ctx);
    });
    FAIL() << "expected FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_NE(e.role().find("hier_ag"), std::string::npos) << e.role();
    EXPECT_GE(e.rank(), 0);
    EXPECT_LT(e.rank(), spec.num_devices);
    EXPECT_GE(e.chunk(), 0);
    EXPECT_EQ(e.attempts(), 3);  // 1 + max_retries
    EXPECT_NE(std::string(e.what()).find("chunk dropped"),
              std::string::npos);
  }
}

// Seeded transient mixes: every collective stays bit-exact with zero
// checker violations while the retry path is genuinely exercised, and the
// same seed replays the identical timeline.
TEST(FaultPlan, TransientMixKeepsCollectivesBitExactAndDeterministic) {
  const MachineSpec spec = TwoNodeSpec(8);
  sim::FaultPlan plan;
  plan.RandomTransients("nic", /*seed=*/7, /*drop_prob=*/0.1,
                        /*spike_prob=*/0.1, /*spike_mult=*/3.0);
  plan.RandomTransients("nvlink", /*seed=*/8, /*drop_prob=*/0.05,
                        /*spike_prob=*/0.1, /*spike_mult=*/2.0);
  const PayloadReport a =
      ValidateHierReduceScatter(spec, 24, 64 << 10, 8, HierConfig{}, &plan);
  EXPECT_TRUE(a.ok());
  EXPECT_GT(a.faults.drops, 0u);
  EXPECT_GT(a.faults.retries, 0u);
  const PayloadReport b =
      ValidateHierReduceScatter(spec, 24, 64 << 10, 8, HierConfig{}, &plan);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.faults.drops, b.faults.drops);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
}

// Killing one of two NIC rails at t=0: the fabric's rail pick skips the
// dead rail, so every chunk rides the survivor, the run completes
// bit-exactly, and the NIC stage pays at most the surviving-bandwidth
// factor.
TEST(FaultPlan, RailDeathFailsOverBitExact) {
  MachineSpec spec = TwoNodeSpec(8);
  spec.nic_rails = 2;
  HierConfig cfg;
  cfg.nic_chunk_tiles = 2;  // 12 tiles -> 6 NIC chunks per stream
  cfg.staging_depth = 6;
  const PayloadReport clean =
      ValidateHierAllGather(spec, 12, 256 << 10, 8, cfg);
  ASSERT_TRUE(clean.ok());
  sim::FaultPlan death;
  death.DegradeRail("nic", /*port=*/-1, /*rail=*/1, /*at=*/0,
                    /*fraction=*/0.0);
  const PayloadReport r =
      ValidateHierAllGather(spec, 12, 256 << 10, 8, cfg, &death);
  EXPECT_TRUE(r.ok());
  // One dead rail of two leaves half the NIC bandwidth: the whole run can
  // cost at most 2x the fault-free makespan (plus pipeline headroom).
  EXPECT_LE(static_cast<double>(r.makespan),
            2.1 * static_cast<double>(clean.makespan));
  EXPECT_GT(r.makespan, clean.makespan);
}

// ---------------------------------------------------------------------------
// Link-role refactor: pinned pre-refactor makespans
// ---------------------------------------------------------------------------

// The collectives were rewritten on the builder layer's tile-centric link
// roles (NicRailRole / NvlinkRingRole streams). The refactor was
// behavior-preserving: these exact makespans were recorded from the
// pre-refactor implementation. Four ReduceScatter values were re-pinned
// once, on purpose: the ring reducer clips each reduce step at the
// ring-step boundary (the deadlock fix that
// RingReduceScatter.NoSmallConfigDeadlocks covers), which re-chunks the
// reduction wherever a ring step's tile count is not a multiple of
// intra_chunk_tiles. Any other drift is a behavior change.
TEST(LinkRoles, RefactoredCollectivesKeepPinnedMakespans) {
  const MachineSpec two = MachineSpec::H800x16();
  MachineSpec three = MachineSpec::H800x8();
  three.num_devices = 6;
  three.devices_per_node = 2;
  const HierConfig def;
  HierConfig odd;
  odd.nic_chunk_tiles = 3;
  odd.intra_chunk_tiles = 5;
  odd.staging_depth = 4;
  odd.intra_channels = 2;
  EXPECT_EQ(SimulateHierAllGather(two, 32, 512 << 10, def), 1875515);
  EXPECT_EQ(SimulateHierReduceScatter(two, 32, 512 << 10, def), 1991542);
  EXPECT_EQ(SimulateFlatAllGather(two, 32, 512 << 10, def), 5654920);
  EXPECT_EQ(SimulateFlatReduceScatter(two, 32, 512 << 10, def), 5669796);
  EXPECT_EQ(SimulateHierAllGather(two, 24, 64 << 10, odd), 264898);
  EXPECT_EQ(SimulateHierReduceScatter(two, 24, 64 << 10, odd), 264018);
  EXPECT_EQ(SimulateHierAllGather(three, 5, 16 << 10, def), 37189);
  EXPECT_EQ(SimulateHierReduceScatter(three, 5, 16 << 10, def), 38601);
  const tl::TuneCandidate c = DpSyncFamily(two, 128ull << 20).seed;
  EXPECT_EQ(SimulateDpSync(two, 128ull << 20, c), 2839968);
  EXPECT_EQ(SimulateDpSync(three, 48ull << 20, c), 1433104);
  // The flat baseline is the one-ring layout of the same collectives; these
  // were recorded from the dedicated flat classes it replaced. `ragged`
  // (4 + 2 ranks) is a layout only the one-ring form accepts.
  MachineSpec ragged = MachineSpec::H800x8();
  ragged.num_devices = 6;
  ragged.devices_per_node = 4;
  EXPECT_EQ(SimulateFlatAllGather(three, 5, 16 << 10, def), 54845);
  EXPECT_EQ(SimulateFlatReduceScatter(three, 5, 16 << 10, def), 54983);
  EXPECT_EQ(SimulateFlatAllGather(two, 24, 64 << 10, odd), 741300);
  EXPECT_EQ(SimulateFlatReduceScatter(two, 24, 64 << 10, odd), 742230);
  EXPECT_EQ(SimulateFlatAllGather(ragged, 5, 16 << 10, def), 54845);
  EXPECT_EQ(SimulateFlatReduceScatter(ragged, 5, 16 << 10, def), 54983);
}

// Sweep of the ring ReduceScatter over every small dense topology (up to
// 3 nodes x 4 ranks), tile count and chunk knob, in both layouts: every
// run completes. A reduce step that spans a ring-step boundary waits on
// the next step's first chunk, which the sender gates on that same reduce
// step; unclipped, 1440 of these 7128 configs throw DeadlockError, the
// default HierConfig with one tile on 1x3 among them.
TEST(RingReduceScatter, NoSmallConfigDeadlocks) {
  int runs = 0;
  std::vector<std::string> deadlocked;
  for (int nodes = 1; nodes <= 3; ++nodes) {
    for (int per_node = 1; per_node <= 4; ++per_node) {
      if (nodes * per_node == 1) continue;  // nothing to reduce
      MachineSpec spec = MachineSpec::H800x8();
      spec.num_devices = nodes * per_node;
      spec.devices_per_node = per_node;
      for (int64_t tiles = 1; tiles <= 9; ++tiles) {
        for (int chunk = 1; chunk <= 6; ++chunk) {
          for (int channels : {1, 2, 4}) {
            for (int nic_chunk : {1, 3}) {
              for (const bool flat : {false, true}) {
                HierConfig cfg;
                cfg.intra_chunk_tiles = chunk;
                cfg.intra_channels = channels;
                cfg.nic_chunk_tiles = nic_chunk;
                ++runs;
                try {
                  (flat ? SimulateFlatReduceScatter
                        : SimulateHierReduceScatter)(spec, tiles, 16 << 10,
                                                     cfg);
                } catch (const sim::DeadlockError&) {
                  deadlocked.push_back(
                      std::to_string(nodes) + "x" + std::to_string(per_node) +
                      (flat ? " flat" : " hier") +
                      " tiles=" + std::to_string(tiles) +
                      " chunk=" + std::to_string(chunk) +
                      " channels=" + std::to_string(channels) +
                      " nic_chunk=" + std::to_string(nic_chunk));
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 7128);
  EXPECT_TRUE(deadlocked.empty())
      << deadlocked.size() << " of " << runs
      << " configs deadlocked, first: " << deadlocked.front();
}

// ---------------------------------------------------------------------------
// HierConfig validation
// ---------------------------------------------------------------------------

TEST(HierConfigValidation, RejectsNonPositiveKnobsUpFront) {
  const MachineSpec spec = TwoNodeSpec(4);
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  HierConfig bad_nic;
  bad_nic.nic_chunk_tiles = 0;
  EXPECT_THROW(HierAllGather(world, 8, 1 << 20, bad_nic), Error);
  HierConfig bad_staging;
  bad_staging.staging_depth = -2;
  EXPECT_THROW(HierReduceScatter(world, 8, 1 << 20, bad_staging), Error);
  HierConfig bad_intra;
  bad_intra.intra_chunk_tiles = 0;
  EXPECT_THROW(DpAllReduce(world, 8, 1 << 20, bad_intra), Error);
  HierConfig bad_channels;
  bad_channels.intra_channels = 0;
  EXPECT_THROW(HierAllGather(world, 8, 1 << 20, bad_channels,
                             RingLayout::kOneRing),
               Error);
  HierConfig bad_reduce;
  bad_reduce.reduce_sms = 0;
  EXPECT_THROW(HierReduceScatter(world, 8, 1 << 20, bad_reduce,
                                 RingLayout::kOneRing),
               Error);
  // The message names the offending knob instead of a chunk-loop internal.
  try {
    HierAllGather ag(world, 8, 1 << 20, bad_nic);
    FAIL() << "expected validation to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nic_chunk_tiles"),
              std::string::npos);
  }
}

TEST(HierConfigValidation, RejectsMismatchedPayloadElems) {
  const MachineSpec spec = TwoNodeSpec(2);
  rt::World world(spec, rt::ExecMode::kFunctional);
  const int64_t tiles = 4;
  HierAllGather ag(world, tiles, 16 << 10, HierConfig());
  // tile_elems = 8 requires in[r] of 32 elems; allocate 16 instead.
  std::vector<rt::Buffer*> in = world.AllocSymmetric("in", tiles * 4);
  std::vector<rt::Buffer*> out =
      world.AllocSymmetric("out", world.size() * tiles * 8);
  try {
    ag.AttachPayload(in, out, /*tile_elems=*/8);
    FAIL() << "expected AttachPayload to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tile_elems"), std::string::npos);
  }
  HierAllGather ag2(world, tiles, 16 << 10, HierConfig());
  EXPECT_THROW(ag2.AttachPayload(in, out, /*tile_elems=*/0), Error);
}

// ---------------------------------------------------------------------------
// Fused GEMM + hierarchical ReduceScatter (kernels/gemm_rs across nodes)
// ---------------------------------------------------------------------------

namespace fused {

tl::GemmRsConfig SmallCfg(int ranks) {
  tl::GemmRsConfig cfg;
  cfg.m = static_cast<int64_t>(ranks) * 8;
  cfg.k = 8;
  cfg.n = 8;
  cfg.gemm = {4, 8, 4};
  cfg.rs_block_m = 4;
  cfg.nic_chunk_blocks = 2;
  return cfg;
}

}  // namespace fused

// The fused kernel's device-program pushes retry through the same fabric
// policy as the host-driven streams: a NIC rail edge that drops every
// attempt exhausts the plan's budget and raises a named FaultError.
TEST(GemmHierRs, ExhaustedRailPushRaisesFaultError) {
  sim::FaultPlan plan;
  for (uint64_t ord = 0; ord < 64; ++ord) {
    plan.DropTransfer("nic", /*src=*/0, /*dst=*/8, ord);
  }
  sim::RetryPolicy rp;
  rp.max_retries = 2;
  plan.set_retry(rp);
  try {
    ValidateGemmHierRs(MachineSpec::H800x16(), fused::SmallCfg(16), &plan);
    FAIL() << "expected FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.role(), "nic.transfer");
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.attempts(), 3);  // 1 + max_retries
    EXPECT_NE(std::string(e.what()).find("chunk dropped"),
              std::string::npos);
  }
}

// The acceptance gate at test granularity: at 2x8 the fused kernel beats
// the layer-level GEMM-then-HierRS compose on simulated makespan, with a
// bit-exact, violation-free functional run.
TEST(GemmHierRs, BeatsLayerComposeAtTwoByEight) {
  const MachineSpec spec = MachineSpec::H800x16();
  const tl::MlpPartShape shape{16384, 256, 4096};
  const tl::TuneCandidate seed = tl::GemmRsFamily(spec, shape).seed;
  const TimeNs fused = tl::SimulateGemmRs(spec, shape, seed);
  const TimeNs compose = SimulateGemmThenHierRs(spec, shape, seed);
  std::printf("fused %.3f ms vs compose %.3f ms\n", fused / 1e6,
              compose / 1e6);
  EXPECT_GT(fused, 0);
  EXPECT_LT(fused, compose);
}

TEST(GemmHierRs, PayloadBitExactAtTwoByEight) {
  const PayloadReport r =
      ValidateGemmHierRs(MachineSpec::H800x16(), fused::SmallCfg(16));
  EXPECT_TRUE(r.bit_exact);
  EXPECT_EQ(r.violations, 0u);
}

// M not divisible by nic_chunk_blocks * rs_block_m: the last rail chunk is
// ragged (8 + 4 rows per 12-row block) and must stay bit-exact, as must a
// three-node topology (multi-peer rail).
TEST(GemmHierRs, RaggedRailChunksStayBitExact) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 8;
  spec.devices_per_node = 4;
  tl::GemmRsConfig cfg = fused::SmallCfg(8);
  cfg.m = 8 * 12;  // m_per_rank = 12 = 3 ring chunks; rail chunk = 2 chunks
  const PayloadReport r = ValidateGemmHierRs(spec, cfg);
  EXPECT_TRUE(r.bit_exact);
  EXPECT_EQ(r.violations, 0u);
  MachineSpec three = MachineSpec::H800x8();
  three.num_devices = 6;
  three.devices_per_node = 2;
  tl::GemmRsConfig tcfg = fused::SmallCfg(6);
  tcfg.m = 6 * 12;
  const PayloadReport rt = ValidateGemmHierRs(three, tcfg);
  EXPECT_TRUE(rt.bit_exact);
  EXPECT_EQ(rt.violations, 0u);
}

// Degenerate topologies: at N x 1 there is no ring (the rail feeds off the
// GEMM producer channels); 1 x 1 is GEMM only. Both stay bit-exact.
TEST(GemmHierRs, DegenerateTopologies) {
  MachineSpec two_by_one = MachineSpec::H800x8();
  two_by_one.num_devices = 2;
  two_by_one.devices_per_node = 1;
  const PayloadReport r2 = ValidateGemmHierRs(two_by_one, fused::SmallCfg(2));
  EXPECT_TRUE(r2.bit_exact);
  EXPECT_EQ(r2.violations, 0u);
  const PayloadReport r1 =
      ValidateGemmHierRs(MachineSpec::Test(1), fused::SmallCfg(1));
  EXPECT_TRUE(r1.bit_exact);
  EXPECT_EQ(r1.violations, 0u);
}

// The ROADMAP item this kernel closes: a planned role bound to
// FabricBinding::kNic, its channel count clamped by the NIC queue-pair
// budget (blocks double as the stream window).
TEST(GemmHierRs, RailRoleBindsNicFabricUnderBudget) {
  MachineSpec spec = MachineSpec::H800x16();
  spec.nic_queue_pairs = 3;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  tl::GemmRsConfig cfg = fused::SmallCfg(16);
  cfg.m = 16 * 32;  // enough rail chunks that the budget is the binder
  cfg.nic_chunk_blocks = 1;
  cfg.staging_depth = 8;  // wants 8, budget grants 3
  tl::GemmRs kernel(world, cfg);
  EXPECT_EQ(kernel.rail_blocks(), 3);
  // With fewer work items than the granted window, work binds instead.
  tl::GemmRsConfig tiny = fused::SmallCfg(16);  // one rail chunk/peer
  rt::World world2(spec, rt::ExecMode::kTimingOnly);
  tl::GemmRs kernel2(world2, tiny);
  EXPECT_EQ(kernel2.rail_blocks(), 1);
  bool found_nic = false;
  for (const tl::Role& role : kernel.spec().roles) {
    if (role.fabric == tl::FabricBinding::kNic) {
      found_nic = true;
      EXPECT_EQ(role.name, "rail");
      EXPECT_LE(role.fabric_channels, 3);
    }
  }
  EXPECT_TRUE(found_nic);
}

// The two-node seed shrinks bm until it divides the per-rank shard, so a
// shard of 96 rows (not a multiple of the default 128-row tile) still has
// a feasible seed: the estimator runs every node-spanning GEMM+RS on it.
TEST(GemmHierRs, SeedFitsShardsBelowTheDefaultTile) {
  const MachineSpec spec = MachineSpec::H800x16();
  const tl::MlpPartShape shape{16 * 96, 256, 512};
  const tl::TuneCandidate seed = tl::GemmRsFamily(spec, shape).seed;
  EXPECT_EQ(seed.gemm.bm, 32);
  EXPECT_TRUE(tl::GemmRsFeasible(spec, shape, seed));
  EXPECT_GT(tl::SimulateGemmRs(spec, shape, seed), 0);
}

TEST(GemmHierRs, TunedConfigNeverLosesToSeed) {
  const MachineSpec spec = MachineSpec::H800x16();
  const tl::MlpPartShape shape{8192, 128, 1024};
  const tl::KernelFamily family = tl::GemmRsFamily(spec, shape);
  EXPECT_EQ(family.kind, "gemm_hier_rs");
  const TimeNs seed_cost = tl::SimulateGemmRs(spec, shape, family.seed);
  const tl::TuneResult r = tl::Tune(family);
  EXPECT_LE(r.best_cost, seed_cost);
  EXPECT_EQ(r.best_cost, tl::SimulateGemmRs(spec, shape, r.best));
}

TEST(DpSync, LayerGradBytesMatchesLayerStructure) {
  const models::ModelConfig dense = models::GetModel("LLaMA2-7B");
  // 4h^2 (attn) + 2*h*inner (MLP), bf16, divided by tp.
  const uint64_t expect =
      2ull * (4ull * 4096 * 4096 + 2ull * 4096 * 11008) / 8;
  EXPECT_EQ(LayerGradBytes(dense, 8), expect);
  const models::ModelConfig moe = models::GetModel("Mixtral-8x7B");
  EXPECT_GT(LayerGradBytes(moe, 8), LayerGradBytes(dense, 8));
}

}  // namespace
}  // namespace tilelink::multinode
