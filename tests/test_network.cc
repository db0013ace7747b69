// Tests for the flow-level interconnect: serial bandwidth, fair sharing,
// latency accounting, local copies, cross-fabric independence, World
// routing, stale completion events, rail splitting, and the deterministic
// fault layer (targeted drops/spikes, seeded transients, ack timeouts,
// rail death and failover).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "runtime/world.h"
#include "sim/cost_model.h"
#include "sim/fault.h"
#include "sim/machine_spec.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace tilelink::sim {
namespace {

constexpr double kBw = 100.0;       // bytes/ns == GB/s
constexpr TimeNs kLatency = 1000;  // 1 us

Coro OneTransfer(Network* net, int src, int dst, uint64_t bytes,
                 TimeNs* done, Simulator* sim) {
  co_await net->Transfer(src, dst, bytes);
  *done = sim->Now();
}

TEST(Network, SingleFlowRunsAtPortBandwidth) {
  Simulator sim;
  Network net(&sim, 4, kBw, kLatency, "nvl");
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &done, &sim));
  sim.Run();
  // 100000 bytes at 100 B/ns = 1000 ns + latency.
  EXPECT_NEAR(static_cast<double>(done), 1000.0 + kLatency, 5.0);
}

TEST(Network, TwoFlowsShareIngressPort) {
  Simulator sim;
  Network net(&sim, 4, kBw, kLatency, "nvl");
  TimeNs d1 = 0, d2 = 0;
  sim.Spawn(OneTransfer(&net, 0, 2, 100000, &d1, &sim));
  sim.Spawn(OneTransfer(&net, 1, 2, 100000, &d2, &sim));
  sim.Run();
  // Both target port 2: each gets bw/2 -> ~2000 ns + latency.
  EXPECT_NEAR(static_cast<double>(d1), 2000.0 + kLatency, 10.0);
  EXPECT_NEAR(static_cast<double>(d2), 2000.0 + kLatency, 10.0);
}

TEST(Network, DisjointPairsDoNotInterfere) {
  Simulator sim;
  Network net(&sim, 4, kBw, kLatency, "nvl");
  TimeNs d1 = 0, d2 = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &d1, &sim));
  sim.Spawn(OneTransfer(&net, 2, 3, 100000, &d2, &sim));
  sim.Run();
  EXPECT_NEAR(static_cast<double>(d1), 1000.0 + kLatency, 5.0);
  EXPECT_NEAR(static_cast<double>(d2), 1000.0 + kLatency, 5.0);
}

Coro LateTransfer(Network* net, TimeNs start, int src, int dst,
                  uint64_t bytes, TimeNs* done, Simulator* sim) {
  co_await Delay{start};
  co_await net->Transfer(src, dst, bytes);
  *done = sim->Now();
}

TEST(Network, RatesRebalanceWhenFlowsJoinAndLeave) {
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nvl");
  TimeNs d1 = 0, d2 = 0;
  // Flow 1: 200000 bytes alone for 1000ns (100000 done), then shares.
  sim.Spawn(OneTransfer(&net, 0, 2, 200000, &d1, &sim));
  sim.Spawn(LateTransfer(&net, 1000, 1, 2, 50000, &d2, &sim));
  sim.Run();
  // After t=1000: flow1 has 100000 left at 50 B/ns -> would finish at 3000;
  // flow2 (50000 at 50 B/ns) finishes at 2000, then flow1 speeds up:
  // at t=2000 flow1 has 50000 left at full 100 -> finishes ~2500.
  EXPECT_NEAR(static_cast<double>(d2), 2000.0, 20.0);
  EXPECT_NEAR(static_cast<double>(d1), 2500.0, 20.0);
}

TEST(Network, ZeroByteTransferOnlyPaysLatency) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nvl");
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 0, &done, &sim));
  sim.Run();
  EXPECT_EQ(done, kLatency);
}

TEST(Network, LocalCopyUsesHbmBandwidth) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nvl");
  net.set_local_copy_bw_gbps(1000.0);
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 1, 1, 1000000, &done, &sim));
  sim.Run();
  // 1e6 bytes at 1000 B/ns = 1000ns + latency.
  EXPECT_NEAR(static_cast<double>(done), 1000.0 + kLatency, 5.0);
}

TEST(Network, TotalBytesAccounted) {
  Simulator sim;
  Network net(&sim, 4, kBw, kLatency, "nvl");
  TimeNs d = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 12345, &d, &sim));
  sim.Spawn(OneTransfer(&net, 2, 3, 55555, &d, &sim));
  sim.Run();
  EXPECT_EQ(net.total_bytes(), 12345u + 55555u);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Network, CrossFabricFlowsDoNotContend) {
  // The two fabrics are separate Networks (as in World): max-min sharing
  // applies within a fabric, never across — concurrent NVLink and NIC flows
  // between the same device pair each run at their own port bandwidth.
  Simulator sim;
  Network nvlink(&sim, 4, kBw, /*latency=*/0, "nvl");
  Network nic(&sim, 4, kBw / 4, /*latency=*/0, "nic");
  TimeNs d_intra1 = 0, d_intra2 = 0, d_inter = 0;
  // Two intra flows share an ingress port; the inter flow is unaffected.
  sim.Spawn(OneTransfer(&nvlink, 0, 2, 100000, &d_intra1, &sim));
  sim.Spawn(OneTransfer(&nvlink, 1, 2, 100000, &d_intra2, &sim));
  sim.Spawn(OneTransfer(&nic, 0, 2, 100000, &d_inter, &sim));
  sim.Run();
  EXPECT_NEAR(static_cast<double>(d_intra1), 2000.0, 10.0);  // bw/2
  EXPECT_NEAR(static_cast<double>(d_intra2), 2000.0, 10.0);
  EXPECT_NEAR(static_cast<double>(d_inter), 4000.0, 10.0);  // nic bw, alone
}

TEST(Network, StaleCompletionEventsAreIgnored) {
  // Regression: flow A's completion is scheduled, then a joining flow slows
  // A (stale event #1 fires mid-flight), then the other flow finishes and A
  // speeds back up (stale event #2 fires after A's reschedule). A must
  // complete exactly once, at the rate-integrated time.
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nvl");
  TimeNs da = 0, db = 0;
  sim.Spawn(OneTransfer(&net, 0, 2, 300000, &da, &sim));       // A
  sim.Spawn(LateTransfer(&net, 1000, 1, 2, 50000, &db, &sim)); // B
  sim.Run();
  // A alone until t=1000 (100000 done, eta was 3000). Shared 50/50 until B
  // ends at t=2000 (A: +50000). A alone again: 150000 left at 100 B/ns ->
  // finishes at 3500, after both stale etas (3000 gen-1, 5000 gen-2).
  EXPECT_NEAR(static_cast<double>(db), 2000.0, 20.0);
  EXPECT_NEAR(static_cast<double>(da), 3500.0, 20.0);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(World, TransferRoutesByNodeBoundary) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 4;
  spec.devices_per_node = 2;  // nodes {0,1} and {2,3}
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  EXPECT_EQ(&world.fabric_for(0, 1), &world.intra_fabric());
  EXPECT_EQ(&world.fabric_for(2, 3), &world.intra_fabric());
  EXPECT_EQ(&world.fabric_for(1, 2), &world.inter_fabric());
  EXPECT_EQ(&world.fabric_for(3, 0), &world.inter_fabric());
  world.sim().Spawn([](rt::World* w) -> Coro {
    co_await w->Transfer(0, 1, 1000);  // same node -> NVLink
    co_await w->Transfer(0, 2, 2000);  // cross node -> NIC
    co_await w->Transfer(3, 3, 4000);  // src == dst: local copy, same node
  }(&world));
  world.sim().Run();
  EXPECT_EQ(world.intra_fabric().total_bytes(), 1000u + 4000u);
  EXPECT_EQ(world.inter_fabric().total_bytes(), 2000u);
}

TEST(World, ConcurrentIntraAndInterTransfersOverlap) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 4;
  spec.devices_per_node = 2;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  const uint64_t bytes = 64 << 20;
  TimeNs intra_done = 0, inter_done = 0;
  Simulator& sim = world.sim();
  sim.Spawn([](rt::World* w, uint64_t b, TimeNs* done) -> Coro {
    co_await w->Transfer(0, 1, b);
    *done = w->sim().Now();
  }(&world, bytes, &intra_done));
  sim.Spawn([](rt::World* w, uint64_t b, TimeNs* done) -> Coro {
    co_await w->Transfer(1, 3, b);
    *done = w->sim().Now();
  }(&world, bytes, &inter_done));
  sim.Run();
  // Device 1 is endpoint of both, yet neither slows the other: different
  // fabrics, different ports.
  const double b = static_cast<double>(bytes);
  EXPECT_NEAR(static_cast<double>(intra_done - spec.nvlink_latency),
              b / spec.nvlink_gbps, b / spec.nvlink_gbps * 0.01);
  EXPECT_NEAR(static_cast<double>(inter_done - spec.nic_latency),
              b / spec.nic_gbps, b / spec.nic_gbps * 0.01);
}

// The ack deadline has one formula: a fabric's ExpectedFlowTime is the cost
// model's transfer time for one rail's share (bytes x rails on the NIC,
// priced through a CostModel whose wire is the NIC's). Several sizes are off
// the bandwidth grid, where ceil and round-to-nearest disagree.
TEST(World, ExpectedFlowTimeMatchesCostModel) {
  MachineSpec spec = MachineSpec::H800x16();
  spec.nic_rails = 4;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  const Network& nic = world.inter_fabric();
  const Network& nvlink = world.intra_fabric();
  ASSERT_EQ(nic.rails(), 4);
  MachineSpec nic_wire = spec;
  nic_wire.nvlink_gbps = spec.nic_gbps;
  nic_wire.nvlink_latency = spec.nic_latency;
  const CostModel nic_cost(nic_wire);
  const uint64_t rails = static_cast<uint64_t>(nic.rails());
  int off_grid = 0;
  for (uint64_t bytes : {1ull, 13ull, 160ull, 1000ull, 4097ull, 65543ull,
                         1ull << 20, (3ull << 20) + 5}) {
    EXPECT_EQ(nic.ExpectedFlowTime(bytes),
              nic_cost.NvlinkTransfer(bytes * rails))
        << bytes;
    EXPECT_EQ(nvlink.ExpectedFlowTime(bytes),
              world.cost().NvlinkTransfer(bytes))
        << bytes;
    const double t = static_cast<double>(bytes) / spec.nvlink_gbps;
    if (std::ceil(t) != std::max(1.0, std::round(t))) ++off_grid;
  }
  EXPECT_GT(off_grid, 0);
}

// ---------------------------------------------------------------------------
// Rails
// ---------------------------------------------------------------------------

Coro OneTry(Network* net, int src, int dst, uint64_t bytes, TransferOpts opts,
            TransferOutcome* out, TimeNs* done, Simulator* sim) {
  co_await net->TryTransfer(src, dst, bytes, opts, out);
  *done = sim->Now();
}

TEST(Rails, FlowsContendOnlyWithinTheirRail) {
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nic");
  net.ConfigureRails(2);
  // Two flows on the same egress port but different rails: each owns its
  // rail's bw/2 share, so both finish as if alone on half the port.
  TransferOutcome oa, ob;
  TimeNs da = 0, db = 0;
  TransferOpts rail0, rail1;
  rail0.rail = 0;
  rail1.rail = 1;
  sim.Spawn(OneTry(&net, 0, 1, 100000, rail0, &oa, &da, &sim));
  sim.Spawn(OneTry(&net, 0, 2, 100000, rail1, &ob, &db, &sim));
  sim.Run();
  EXPECT_NEAR(static_cast<double>(da), 2000.0, 5.0);  // 100000 / (100/2)
  EXPECT_NEAR(static_cast<double>(db), 2000.0, 5.0);
  EXPECT_EQ(oa.rail, 0);
  EXPECT_EQ(ob.rail, 1);

  // Same rail: they share the rail's bw/2.
  TimeNs dc = 0, dd = 0;
  TransferOutcome oc, od;
  sim.Spawn(OneTry(&net, 0, 1, 100000, rail0, &oc, &dc, &sim));
  sim.Spawn(OneTry(&net, 0, 2, 100000, rail0, &od, &dd, &sim));
  const TimeNs t0 = sim.Now();
  sim.Run();
  EXPECT_NEAR(static_cast<double>(dc - t0), 4000.0, 5.0);
  EXPECT_NEAR(static_cast<double>(dd - t0), 4000.0, 5.0);
}

TEST(Rails, AutoPickSpreadsAcrossLeastLoadedLiveRails) {
  Simulator sim;
  Network net(&sim, 2, kBw, /*latency=*/0, "nic");
  net.ConfigureRails(4);
  net.SetRailScale(/*port=*/-1, /*rail=*/2, 0.0);  // rail 2 dead up front
  EXPECT_EQ(net.rail_generation(), 1u);
  std::vector<TransferOutcome> outs(6);
  std::vector<TimeNs> done(6);
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(OneTry(&net, 0, 1, 1000, TransferOpts{}, &outs[i], &done[i],
                     &sim));
  }
  sim.Run();
  int per_rail[4] = {0, 0, 0, 0};
  for (const TransferOutcome& o : outs) per_rail[o.rail]++;
  EXPECT_EQ(per_rail[0], 2);  // 6 flows over live rails {0, 1, 3}
  EXPECT_EQ(per_rail[1], 2);
  EXPECT_EQ(per_rail[2], 0);
  EXPECT_EQ(per_rail[3], 2);
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

TEST(Faults, TargetedDropBillsWireButFailsDelivery) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nic");
  FaultPlan plan;
  plan.DropTransfer("nic", 0, 1, /*ordinal=*/0);
  net.SetFaultPlan(&plan);
  TransferOutcome o0, o1;
  TimeNs d0 = 0, d1 = 0;
  sim.Spawn([](Network* net, TransferOutcome* o0, TransferOutcome* o1,
               TimeNs* d0, TimeNs* d1, Simulator* sim) -> Coro {
    co_await net->TryTransfer(0, 1, 100000, TransferOpts{}, o0);
    *d0 = sim->Now();
    co_await net->TryTransfer(0, 1, 100000, TransferOpts{}, o1);
    *d1 = sim->Now();
  }(&net, &o0, &o1, &d0, &d1, &sim));
  sim.Run();
  EXPECT_FALSE(o0.delivered);  // ordinal 0 dropped...
  EXPECT_EQ(o0.ordinal, 0u);
  EXPECT_NEAR(static_cast<double>(d0), 1000.0 + kLatency, 5.0);  // wire billed
  EXPECT_TRUE(o1.delivered);  // ...retry carries ordinal 1, not re-dropped
  EXPECT_EQ(o1.ordinal, 1u);
  EXPECT_EQ(net.fault_stats().drops, 1u);
}

TEST(Faults, TransferWrapperRetriesDroppedChunks) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nic");
  FaultPlan plan;
  plan.DropTransfer("nic", 0, 1, 0);
  plan.DropTransfer("nic", 0, 1, 1);
  net.SetFaultPlan(&plan);
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &done, &sim));
  sim.Run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(net.fault_stats().drops, 2u);
  EXPECT_EQ(net.fault_stats().retries, 2u);
}

TEST(Faults, ExhaustedRetriesRaiseNamedFaultError) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nic");
  FaultPlan plan;
  for (uint64_t ord = 0; ord < 8; ++ord) plan.DropTransfer("nic", 0, 1, ord);
  RetryPolicy rp;
  rp.max_retries = 2;
  plan.set_retry(rp);
  net.SetFaultPlan(&plan);
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &done, &sim));
  try {
    sim.Run();
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.role(), "nic.transfer");
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.attempts(), 3);  // 1 + max_retries
    EXPECT_NE(std::string(e.what()).find("chunk dropped"), std::string::npos);
  }
}

TEST(Faults, LatencySpikeBillsMultiplier) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nic");
  FaultPlan plan;
  plan.SpikeTransfer("nic", 0, 1, /*ordinal=*/0, /*mult=*/3.0);
  net.SetFaultPlan(&plan);
  TimeNs spiked = 0, clean = 0;
  sim.Spawn([](Network* net, TimeNs* spiked, TimeNs* clean,
               Simulator* sim) -> Coro {
    const TimeNs t0 = sim->Now();
    co_await net->Transfer(0, 1, 100000);
    *spiked = sim->Now() - t0;
    const TimeNs t1 = sim->Now();
    co_await net->Transfer(0, 1, 100000);
    *clean = sim->Now() - t1;
  }(&net, &spiked, &clean, &sim));
  sim.Run();
  EXPECT_NEAR(static_cast<double>(spiked), 3.0 * static_cast<double>(clean),
              5.0);
  EXPECT_EQ(net.fault_stats().spikes, 1u);
}

TEST(Faults, RailDeathParksFlowAndAckTimeoutRecovers) {
  Simulator sim;
  Network net(&sim, 2, kBw, /*latency=*/10, "nic");
  net.ConfigureRails(2);
  // Kill rail 0 mid-flight. Transfer's first attempt picks rail 0 (least
  // loaded, tie-lowest), the flow parks at rate 0, the fabric's ack
  // deadline fires, and the retry lands on surviving rail 1.
  FaultPlan plan;
  plan.DegradeRail("nic", /*port=*/-1, /*rail=*/0, /*at=*/500,
                   /*fraction=*/0.0);
  net.SetFaultPlan(&plan);
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &done, &sim));
  sim.Run();
  EXPECT_GT(done, 0);
  EXPECT_GE(net.fault_stats().timeouts, 1u);
  EXPECT_GE(net.fault_stats().retries, 1u);
  EXPECT_EQ(net.RailScale(0, 0), 0.0);
  EXPECT_EQ(net.RailScale(0, 1), 1.0);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Faults, IdenticalSeedsReplayIdenticalTimelines) {
  // Two independent simulators with the same seeded plan must produce
  // bit-identical completion times and fault counters; a different seed
  // must produce a different timeline.
  auto run = [](uint64_t seed, std::vector<TimeNs>* times) -> FaultStats {
    Simulator sim;
    Network net(&sim, 4, kBw, kLatency, "nic");
    FaultPlan plan;
    plan.RandomTransients("nic", seed, /*drop_prob=*/0.25,
                          /*spike_prob=*/0.25, /*spike_mult=*/2.0);
    net.SetFaultPlan(&plan);
    times->assign(16, 0);
    for (int i = 0; i < 16; ++i) {
      sim.Spawn(OneTransfer(&net, i % 3, 3, 50000, &(*times)[i], &sim));
    }
    sim.Run();
    return net.fault_stats();
  };
  std::vector<TimeNs> a, b, c;
  const FaultStats sa = run(42, &a);
  const FaultStats sb = run(42, &b);
  const FaultStats sc = run(43, &c);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.drops, sb.drops);
  EXPECT_EQ(sa.spikes, sb.spikes);
  EXPECT_GT(sa.drops + sa.spikes, 0u);  // the mix actually injected faults
  EXPECT_GT(sc.drops + sc.spikes, 0u);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------------
// Hot path: event-count gates on deterministic counters
// ---------------------------------------------------------------------------

Coro StormFlow(Network* net, int src, int dst) {
  co_await net->Transfer(src, dst, 1 << 20);
}

TEST(HotPath, StormArmsAtMostFourCompletionsPerFlow) {
  // Flow i from port i % 8 to (i + 1) % 8, all starting together: each
  // join slows every flow on its port pair, which must not re-arm them.
  // The 512 joins land in one nanosecond, so each flow is re-rated once,
  // at the end of that instant; the 64 flows of a port pair finish
  // together, and a finished flow is not re-rated. One re-rate per flow
  // (re-rating at every join cost 8 x (1 + 2 + ... + 64) = 16640).
  constexpr int kFlows = 512;
  Simulator sim;
  Network net(&sim, 8, 150.0, 2200, "nvl");
  for (int i = 0; i < kFlows; ++i) {
    sim.Spawn(StormFlow(&net, i % 8, (i + 1) % 8));
  }
  sim.Run();
  EXPECT_EQ(net.rerated_flows(), static_cast<uint64_t>(kFlows));
  EXPECT_LE(net.completion_events(), 4u * kFlows);
  EXPECT_EQ(net.total_flows(), static_cast<uint64_t>(kFlows));
  EXPECT_EQ(net.total_bytes(), static_cast<uint64_t>(kFlows) << 20);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(HotPath, RateRiseSupersedesThePendingCompletion) {
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nvl");
  TimeNs da = 0, db = 0;
  // B and A join in the same nanosecond, so both are rated once, at the
  // shared 50 B/ns: B arms for 200, A for 2000. B's exit at 200 lifts A to
  // 100 B/ns with 90000 bytes left: A re-arms for 1100, and its 2000 entry
  // goes stale. (Rating B alone at its own join first armed a fourth
  // entry, for 100.)
  sim.Spawn(OneTransfer(&net, 0, 2, 10000, &db, &sim));
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &da, &sim));
  sim.Run();
  EXPECT_EQ(db, 200);
  EXPECT_EQ(da, 1100);
  EXPECT_EQ(net.completion_events(), 3u);
  EXPECT_EQ(net.stale_completions(), 1u);
}

TEST(HotPath, CountsEmptyWakeUps) {
  // The scenario above, wake-up by wake-up: at 200 B completes, queueing a
  // wake-up for A's 2000 entry that B's exit supersedes with one at 1100,
  // where A completes. The superseded wake-up still fires at 2000 (empty),
  // past the last completion. (Re-rating at every join also woke at 100
  // for B's early entry, empty.)
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nvl");
  TimeNs da = 0, db = 0;
  sim.Spawn(OneTransfer(&net, 0, 2, 10000, &db, &sim));
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &da, &sim));
  sim.Run();
  EXPECT_EQ(da, 1100);
  EXPECT_EQ(net.wakeups(), 3u);
  EXPECT_EQ(net.empty_wakeups(), 1u);
  EXPECT_EQ(sim.Now(), 2000);
}

struct CounterSample {
  uint64_t completion_events = 0;
  uint64_t rerated = 0;
};

void SampleAt(Simulator* sim, Network* net, TimeNs t, CounterSample* out) {
  sim->At(t, [net, out] {
    *out = CounterSample{net->completion_events(), net->rerated_flows()};
  });
}

TEST(HotPath, DisjointJoinLeavesExistingFlowsAlone) {
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nvl");
  TimeNs da = 0, db = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &da, &sim));
  sim.Spawn(LateTransfer(&net, 500, 2, 3, 20000, &db, &sim));
  CounterSample before, after;
  SampleAt(&sim, &net, 499, &before);
  SampleAt(&sim, &net, 501, &after);
  sim.Run();
  // B's join at t=500 re-rates and arms B alone.
  EXPECT_EQ(after.completion_events - before.completion_events, 1u);
  EXPECT_EQ(after.rerated - before.rerated, 1u);
  EXPECT_EQ(da, 1000);
  EXPECT_EQ(db, 700);
}

TEST(HotPath, RailRescaleReratesOnlyThatRailsFlows) {
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nic");
  net.ConfigureRails(2);
  // Rail 0 carries 0->1, 1->2, 2->3; rail 1 carries 0->2, 3->1. Every flow
  // runs at its rail's 50 B/ns share for 2000 ns, past both rescales.
  const int src[] = {0, 1, 2, 0, 3};
  const int dst[] = {1, 2, 3, 2, 1};
  const int rail[] = {0, 0, 0, 1, 1};
  std::vector<TransferOutcome> outs(5);
  std::vector<TimeNs> done(5);
  for (int i = 0; i < 5; ++i) {
    TransferOpts opts;
    opts.rail = rail[i];
    sim.Spawn(OneTry(&net, src[i], dst[i], 100000, opts, &outs[i], &done[i],
                     &sim));
  }
  CounterSample s0, s1, s2, s3;
  SampleAt(&sim, &net, 99, &s0);
  sim.At(100, [&net] { net.SetRailScale(/*port=*/-1, /*rail=*/1, 0.5); });
  SampleAt(&sim, &net, 101, &s1);
  SampleAt(&sim, &net, 199, &s2);
  sim.At(200, [&net] { net.SetRailScale(/*port=*/2, /*rail=*/0, 0.5); });
  SampleAt(&sim, &net, 201, &s3);
  sim.Run();
  EXPECT_EQ(s1.rerated - s0.rerated, 2u);  // rail 1's two flows
  EXPECT_EQ(s3.rerated - s2.rerated, 2u);  // 1->2 and 2->3 touch port 2
  EXPECT_EQ(net.active_flow_count(), 0);
}

Coro LateTry(Network* net, TimeNs start, int src, int dst, uint64_t bytes,
             int rail, TimeNs* done, Simulator* sim) {
  co_await Delay{start};
  TransferOpts opts;
  opts.rail = rail;
  TransferOutcome out;
  co_await net->TryTransfer(src, dst, bytes, opts, &out);
  *done = sim->Now();
}

TEST(HotPath, SharesFollowJoinsLeavesRescalesAndRailChanges) {
  // Two phases on one fabric, every share inexact (100 B/ns over 3 rails,
  // health 1/3 and 0.3). Phase 1, one rail: joins, leaves and a rescale
  // of every port and of one port. Then ConfigureRails(3), and phase 2:
  // rail 0 dies under two flows (they park), a flow joins the dead rail,
  // one port of rail 1 is rescaled, and rail 0 revives. Completion times
  // and re-rate counts are pinned: a port-rail share left stale by any of
  // these changes moves them.
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nic");
  std::vector<TimeNs> done(10, 0);
  sim.Spawn(LateTry(&net, 0, 0, 1, 100000, 0, &done[0], &sim));
  sim.Spawn(LateTry(&net, 0, 2, 1, 50000, 0, &done[1], &sim));
  sim.Spawn(LateTry(&net, 300, 0, 3, 40000, 0, &done[2], &sim));
  sim.Spawn(LateTry(&net, 700, 3, 1, 30000, 0, &done[3], &sim));
  sim.At(400, [&net] { net.SetRailScale(-1, 0, 1.0 / 3.0); });
  sim.At(900, [&net] { net.SetRailScale(1, 0, 0.3); });
  sim.Run();
  const uint64_t phase1_rerated = net.rerated_flows();
  const TimeNs t0 = sim.Now();

  net.ConfigureRails(3);
  EXPECT_EQ(net.RailScale(1, 0), 1.0);
  sim.Spawn(LateTry(&net, 0, 0, 1, 200000, 0, &done[4], &sim));
  sim.Spawn(LateTry(&net, 0, 0, 2, 100000, 0, &done[5], &sim));
  sim.Spawn(LateTry(&net, 0, 1, 2, 100000, 1, &done[6], &sim));
  sim.Spawn(LateTry(&net, 500, 3, 2, 60000, 1, &done[7], &sim));
  sim.Spawn(LateTry(&net, 700, 3, 0, 20000, 0, &done[8], &sim));
  sim.Spawn(LateTry(&net, 0, 2, 3, 80000, 2, &done[9], &sim));
  sim.At(t0 + 300, [&net] { net.SetRailScale(-1, 0, 0.0); });
  sim.At(t0 + 600, [&net] { net.SetRailScale(2, 1, 1.0 / 3.0); });
  sim.At(t0 + 1200, [&net] { net.SetRailScale(-1, 0, 1.0); });
  sim.Run();
  EXPECT_EQ(t0, 6512);  // a no-op network wake-up outlives the last flow
  EXPECT_EQ(done, (std::vector<TimeNs>{5012, 3178, 2501, 3512, t0 + 9900,
                                       t0 + 6900, t0 + 13200, t0 + 11100,
                                       t0 + 1800, t0 + 2400}));
  // Re-rating at every change: 18, 35 and 22. Same-instant joins now share
  // one re-rate.
  EXPECT_EQ(phase1_rerated, 17u);
  EXPECT_EQ(net.rerated_flows(), 33u);
  EXPECT_EQ(net.completion_events(), 21u);
  EXPECT_EQ(net.active_flow_count(), 0);
}

// ---------------------------------------------------------------------------
// Property: the indexed network against an eager integrator
// ---------------------------------------------------------------------------

// The reference: every flow change advances every live flow to Now(),
// re-rates all of them and queues a fresh completion for each, generation
// counters retiring the superseded ones. Same rate formula, event pattern
// and completion rule as Network::TryTransfer without a fault plan.
class EagerFabric {
 public:
  EagerFabric(Simulator* sim, int ports, int rails, double bw, TimeNs latency)
      : sim_(sim), ports_(ports), rails_(rails), bw_(bw), latency_(latency),
        egress_(ports * rails, 0), ingress_(ports * rails, 0),
        scale_(ports * rails, 1.0) {}

  void SetRailScale(int port, int rail, double fraction) {
    const int lo = port < 0 ? 0 : port;
    const int hi = port < 0 ? ports_ : port + 1;
    for (int p = lo; p < hi; ++p) scale_[p * rails_ + rail] = fraction;
    Rebalance();
  }

  Coro Transfer(int src, int dst, uint64_t bytes, int rail,
                TimeNs ack_timeout, bool* timed_out) {
    total_bytes_ += bytes;
    co_await Delay{latency_};
    const uint64_t id = next_id_++;
    Flow& f = *flows_
                   .emplace(id, std::make_unique<Flow>(
                                    sim_, src * rails_ + rail,
                                    dst * rails_ + rail, bytes))
                   .first->second;
    f.last = sim_->Now();
    if (ack_timeout > 0) {
      sim_->At(sim_->Now() + ack_timeout, [this, id] {
        auto it = flows_.find(id);
        if (it == flows_.end() || it->second->done.value() > 0) return;
        it->second->timed_out = true;
        it->second->done.Set(1);
      });
    }
    ++egress_[f.eg];
    ++ingress_[f.in];
    Rebalance();
    co_await f.done.WaitGe(1);
    *timed_out = f.timed_out;
    --egress_[f.eg];
    --ingress_[f.in];
    flows_.erase(id);
    Rebalance();
  }

  uint64_t total_bytes() const { return total_bytes_; }
  int active() const { return static_cast<int>(flows_.size()); }

 private:
  struct Flow {
    Flow(Simulator* sim, int e, int i, uint64_t bytes)
        : eg(e), in(i), rem(static_cast<double>(bytes)),
          done(sim, "eager.done") {}
    int eg;  // egress port-rail
    int in;  // ingress port-rail
    double rem;
    double rate = 0.0;
    TimeNs last = 0;
    uint64_t gen = 0;
    bool timed_out = false;
    Flag done;
  };

  void Rebalance() {
    const TimeNs now = sim_->Now();
    for (auto& [id, fp] : flows_) {
      Flow& f = *fp;
      if (f.done.value() > 0) continue;
      f.rem = std::max(f.rem - f.rate * static_cast<double>(now - f.last), 0.0);
      f.last = now;
      const double share = bw_ / rails_;
      f.rate = std::min(share * scale_[f.eg] / std::max(1, egress_[f.eg]),
                        share * scale_[f.in] / std::max(1, ingress_[f.in]));
      Schedule(id, f);
    }
  }

  void Schedule(uint64_t id, Flow& f) {
    const uint64_t gen = ++f.gen;
    if (f.rate <= 0.0) return;
    const TimeNs eta = sim_->Now() + std::max<TimeNs>(
                                         1, static_cast<TimeNs>(
                                                std::ceil(f.rem / f.rate)));
    sim_->At(eta, [this, id, gen] { OnCompletion(id, gen); });
  }

  void OnCompletion(uint64_t id, uint64_t gen) {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;
    Flow& f = *it->second;
    if (f.gen != gen || f.done.value() > 0) return;
    const TimeNs now = sim_->Now();
    f.rem -= f.rate * static_cast<double>(now - f.last);
    f.last = now;
    if (f.rem <= 0.5) {
      f.done.Set(1);
    } else {
      Schedule(id, f);
    }
  }

  Simulator* sim_;
  int ports_;
  int rails_;
  double bw_;
  TimeNs latency_;
  std::vector<int> egress_;  // flows per port-rail
  std::vector<int> ingress_;
  std::vector<double> scale_;  // health per port-rail, both sides
  std::map<uint64_t, std::unique_ptr<Flow>> flows_;
  uint64_t next_id_ = 0;
  uint64_t total_bytes_ = 0;
};

struct Xfer {
  int src = 0;
  int dst = 0;
  int rail = 0;
  uint64_t bytes = 0;
  TimeNs start = 0;
  TimeNs ack_timeout = 0;
};

// One rail health change: SetRailScale(port, rail, fraction) at `at`.
struct RailChange {
  TimeNs at = 0;
  int port = -1;
  int rail = 0;
  double fraction = 1.0;
};

// One seeded case: random ports, rails, sizes and starts, one ack timeout
// and rail rescales. Every kill heals later, or the flows it parks would
// never finish.
struct PropertyCase {
  int ports = 2;
  int rails = 1;
  TimeNs latency = 0;
  std::vector<Xfer> xfers;
  std::vector<RailChange> changes;  // applied in this order at equal times
};

// Case families: see FinishTimesMatchEagerIntegrator.
enum class Family { kExact, kGeneral, kBurst };

PropertyCase DrawCase(uint64_t seed, Family family) {
  Rng rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return static_cast<int>(rng.UniformInt(lo, hi));
  };
  const bool general = family == Family::kGeneral;
  const bool burst = family == Family::kBurst;
  PropertyCase c;
  c.ports = pick(2, 6);
  c.rails = general ? pick(1, 4) : 1 << pick(0, 2);
  c.latency = 10 * pick(0, 5);
  const int n = burst ? pick(4, 8) : general ? pick(2, 14) : pick(2, 8);
  for (int i = 0; i < n; ++i) {
    Xfer x;
    x.src = pick(0, c.ports - 1);
    x.dst = (x.src + pick(1, c.ports - 1)) % c.ports;
    x.rail = pick(0, c.rails - 1);
    if (burst) {
      // Four start instants, and sizes whose finish times land on the same
      // 100 ns grid at most shares: joins, leaves and rescales pile up in
      // the same nanosecond.
      x.bytes = 21000 * static_cast<uint64_t>(pick(1, 8));
      x.start = 100 * pick(0, 3);
    } else {
      // Round sizes and a 100 ns start grid make same-time ties common.
      x.bytes = pick(0, 1) == 0 ? 1000 * static_cast<uint64_t>(pick(1, 200))
                                : static_cast<uint64_t>(pick(1, 200000));
      x.start = 100 * pick(0, 20);
    }
    c.xfers.push_back(x);
  }
  c.xfers[static_cast<std::size_t>(pick(0, n - 1))].ack_timeout =
      100 * pick(1, burst ? 10 : 40);
  constexpr double kFractions[] = {0.0, 0.25, 0.5, 1.0 / 3.0, 0.8};
  const int changes = burst ? pick(2, 4) : 1;
  for (int i = 0; i < changes; ++i) {
    RailChange rc;
    rc.at = 100 * (burst ? pick(0, 4) : pick(0, 30));
    rc.port = pick(-1, c.ports - 1);
    rc.rail = pick(0, c.rails - 1);
    rc.fraction = kFractions[pick(0, general ? 4 : 2)];
    c.changes.push_back(rc);
    if (rc.fraction == 0.0) {
      RailChange heal = rc;
      heal.at = rc.at + 100 * pick(1, burst ? 4 : 40);
      heal.fraction = 1.0;
      c.changes.push_back(heal);
    }
  }
  return c;
}

struct FlowResult {
  TimeNs done = -1;
  bool timed_out = false;
};

Coro IndexedXfer(Network* net, Xfer x, FlowResult* r, Simulator* sim) {
  co_await Delay{x.start};
  TransferOpts opts;
  opts.rail = x.rail;
  opts.ack_timeout = x.ack_timeout;
  TransferOutcome out;
  co_await net->TryTransfer(x.src, x.dst, x.bytes, opts, &out);
  r->done = sim->Now();
  r->timed_out = out.timed_out;
}

Coro EagerXfer(EagerFabric* net, Xfer x, FlowResult* r, Simulator* sim) {
  co_await Delay{x.start};
  co_await net->Transfer(x.src, x.dst, x.bytes, x.rail, x.ack_timeout,
                         &r->timed_out);
  r->done = sim->Now();
}

TEST(HotPath, FinishTimesMatchEagerIntegrator) {
  // Three families of seeded cases:
  //  * Exact shares: 840 B/ns over 1, 2 or 4 rails at health 0, 1/4, 1/2
  //    or 1, at most 8 flows. Every share is 840/k times a power of two, so
  //    each rate * dt and each progress subtraction is exact, and finish
  //    times must match bitwise, same-time ties included.
  //  * Same-nanosecond bursts: exact shares again, 4-8 flows joining at
  //    four instants, sizes that finish on the same grid, an ack timeout
  //    on it, and 2-4 rescales at those instants (kills included, each
  //    healed at a later one). Joins, leaves, rescales and rail death pile
  //    up in one nanosecond, where the index re-rates each flow once at the
  //    end of the instant and the integrator re-rates at every change:
  //    finish times must match bitwise.
  //  * General shares: 100 B/ns over 1-4 rails, health 1/3 or 0.8 too, up
  //    to 14 flows. Rates like 100/3 are inexact, and the eager integrator
  //    re-anchors every flow at every change, so its remaining bytes round
  //    differently in the last bits than the index's one anchor per rate.
  //    A ceil(rem / rate) that lands within that rounding of an integer
  //    moves by one nanosecond, so finish times may differ by 1 ns.
  for (const Family family :
       {Family::kExact, Family::kBurst, Family::kGeneral}) {
    const bool exact = family != Family::kGeneral;
    const char* label = family == Family::kExact   ? "exact"
                        : family == Family::kBurst ? "burst"
                                                   : "general";
    const double bw = exact ? 840.0 : kBw;
    for (uint64_t seed = 1; seed <= 400; ++seed) {
      const PropertyCase c = DrawCase(seed, family);
      uint64_t bytes = 0;
      for (const Xfer& x : c.xfers) bytes += x.bytes;

      Simulator s1;
      Network net(&s1, c.ports, bw, c.latency, "nic");
      net.ConfigureRails(c.rails);
      std::vector<FlowResult> got(c.xfers.size());
      for (std::size_t i = 0; i < c.xfers.size(); ++i) {
        s1.Spawn(IndexedXfer(&net, c.xfers[i], &got[i], &s1));
      }
      for (const RailChange& rc : c.changes) {
        s1.At(rc.at, [&net, rc] {
          net.SetRailScale(rc.port, rc.rail, rc.fraction);
        });
      }
      s1.Run();

      Simulator s2;
      EagerFabric ref(&s2, c.ports, c.rails, bw, c.latency);
      std::vector<FlowResult> want(c.xfers.size());
      for (std::size_t i = 0; i < c.xfers.size(); ++i) {
        s2.Spawn(EagerXfer(&ref, c.xfers[i], &want[i], &s2));
      }
      for (const RailChange& rc : c.changes) {
        s2.At(rc.at, [&ref, rc] {
          ref.SetRailScale(rc.port, rc.rail, rc.fraction);
        });
      }
      s2.Run();

      const TimeNs tolerance = exact ? 0 : 1;
      for (std::size_t i = 0; i < c.xfers.size(); ++i) {
        EXPECT_LE(std::abs(got[i].done - want[i].done), tolerance)
            << label << " seed " << seed << " flow " << i << ": "
            << got[i].done << " vs " << want[i].done;
        EXPECT_EQ(got[i].timed_out, want[i].timed_out)
            << label << " seed " << seed << " flow " << i;
      }
      EXPECT_EQ(net.total_bytes(), bytes) << "seed " << seed;
      EXPECT_EQ(ref.total_bytes(), bytes) << "seed " << seed;
      EXPECT_EQ(net.active_flow_count(), 0) << "seed " << seed;
      EXPECT_EQ(ref.active(), 0) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace tilelink::sim
