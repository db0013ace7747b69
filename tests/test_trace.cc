// Fabric observability layer: chrome-trace recorder correctness (JSON
// validity, escaping, flow pairing, counter monotonicity), the pay-for-use
// guarantee (makespans bitwise identical with tracing on or off, for every
// collective and the fused kernel, with and without an active FaultPlan),
// and the profiler oracles (compute-only traces expose zero comm, comm-only
// traces put the whole makespan on the critical path).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/cost_model.h"
#include "sim/fault.h"
#include "sim/machine_spec.h"
#include "sim/network.h"
#include "sim/profile.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tilelink/multinode/payload_validation.h"

namespace tilelink::multinode {
namespace {

using sim::MachineSpec;
using sim::TimeNs;
using sim::TraceRecorder;
using Phase = sim::TraceRecorder::Phase;

MachineSpec TwoNodeSpec(int per_node) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 2 * per_node;
  spec.devices_per_node = per_node;
  return spec;
}

tl::GemmRsConfig SmallFusedCfg(int ranks) {
  tl::GemmRsConfig cfg;
  cfg.m = static_cast<int64_t>(ranks) * 8;
  cfg.k = 8;
  cfg.n = 8;
  cfg.gemm = {4, 8, 4};
  cfg.rs_block_m = 4;
  cfg.nic_chunk_blocks = 2;
  return cfg;
}

// A small traced HierReduceScatter at 2x4: carries every event class the
// recorder supports (spans, flows, counters, instants come in under
// faults), shared by several structural tests below.
TraceRecorder RecordHierRs() {
  TraceRecorder rec;
  const PayloadReport r = ValidateHierReduceScatter(
      TwoNodeSpec(4), /*num_tiles=*/16, /*tile_bytes=*/64 << 10,
      /*tile_elems=*/64, HierConfig{}, /*plan=*/nullptr, &rec,
      /*trace_pid_base=*/0);
  EXPECT_TRUE(r.ok());
  EXPECT_GT(rec.size(), 0u);
  return rec;
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

TEST(TraceJson, EscapesHostileStringsAndStaysValid) {
  TraceRecorder rec;
  rec.SetProcessName(0, "rank \"zero\" \\ <primary>");
  const int tid = rec.Track(0, "lane\nwith\tcontrol\x01chars");
  rec.AddSpan(0, tid, "span \"name\"", 10, 20, sim::kCatCompute,
              {sim::TraceArg::Str("why", "a\\b\"c\nd"),
               sim::TraceArg::Num("bytes", 4096)});
  rec.AddInstant(0, tid, "fault.\"quoted\"", 15);
  rec.AddCounter(0, "track\\name", "series\"key", 16, 1.5);
  const std::string json = rec.ToJson();
  std::string err;
  EXPECT_TRUE(TraceRecorder::ValidateJson(json, &err)) << err;
  // The raw control byte must have been escaped away.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(TraceJson, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(TraceRecorder::ValidateJson("{\"a\": }"));
  EXPECT_FALSE(TraceRecorder::ValidateJson("{\"a\": 1,}"));
  EXPECT_FALSE(TraceRecorder::ValidateJson("{\"a\": \"unterminated}"));
  EXPECT_FALSE(TraceRecorder::ValidateJson("[1, 2"));
  EXPECT_FALSE(TraceRecorder::ValidateJson("{\"a\": 1} trailing"));
  std::string err;
  EXPECT_FALSE(TraceRecorder::ValidateJson("{\"bad\": \x01}", &err));
  EXPECT_FALSE(err.empty());
}

TEST(TraceJson, SaveRoundTripsThroughDisk) {
  TraceRecorder rec = RecordHierRs();
  const std::string path = ::testing::TempDir() + "trace_roundtrip.json";
  rec.Save(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  std::string err;
  EXPECT_TRUE(TraceRecorder::ValidateJson(text, &err)) << err;
  // Streaming Save and in-memory ToJson must agree byte for byte.
  EXPECT_EQ(text, rec.ToJson());
}

TEST(TraceJson, RealTraceSerializesValid) {
  const TraceRecorder rec = RecordHierRs();
  std::string err;
  EXPECT_TRUE(TraceRecorder::ValidateJson(rec.ToJson(), &err)) << err;
}

// ---------------------------------------------------------------------------
// Flow events
// ---------------------------------------------------------------------------

TEST(TraceFlows, IdsAreUniqueAndFinishesArePaired) {
  const TraceRecorder rec = RecordHierRs();
  std::map<uint64_t, int> starts, finishes;
  for (const auto& e : rec.events()) {
    if (e.phase == Phase::kFlowStart) ++starts[e.flow];
    if (e.phase == Phase::kFlowFinish) ++finishes[e.flow];
  }
  EXPECT_GT(starts.size(), 0u);
  EXPECT_GT(finishes.size(), 0u);
  // Each id is emitted at most once per side; every finish has a matching
  // start (orphan starts are fine: not every publication finds a traced
  // consumer, e.g. the last ring hop).
  for (const auto& [id, n] : starts) {
    EXPECT_NE(id, 0u);
    EXPECT_EQ(n, 1) << "flow id " << id << " started " << n << " times";
  }
  for (const auto& [id, n] : finishes) {
    EXPECT_EQ(n, 1) << "flow id " << id << " finished " << n << " times";
    EXPECT_TRUE(starts.count(id)) << "flow id " << id << " has no start";
  }
}

TEST(TraceFlows, HierRsChainCoversProducerRingRailReduce) {
  const TraceRecorder rec = RecordHierRs();
  // Producer publication -> ring chunk -> ring reduce -> rail chunk ->
  // rail reduce: at least 3 arrows end-to-end.
  EXPECT_GE(sim::LongestFlowChain(rec), 3);
}

// ---------------------------------------------------------------------------
// Counter tracks
// ---------------------------------------------------------------------------

TEST(TraceCounters, PublishedPrefixAndRetiredAreMonotone) {
  const TraceRecorder rec = RecordHierRs();
  // Watermark counters never move backwards: the published prefix of every
  // in-order signal and the checker's retired-interval count.
  std::map<std::pair<int, std::string>, double> last_prefix;
  double last_retired = -1.0;
  size_t prefix_samples = 0;
  for (const auto& e : rec.events()) {
    if (e.phase != Phase::kCounter) continue;
    if (e.name == "published_prefix") {
      const auto key = std::make_pair(e.pid, e.category);
      auto it = last_prefix.find(key);
      if (it != last_prefix.end()) {
        EXPECT_GE(e.value, it->second) << e.category << " on pid " << e.pid;
      }
      last_prefix[key] = e.value;
      ++prefix_samples;
    } else if (e.name == "checker.retired") {
      EXPECT_GE(e.value, last_retired);
      last_retired = e.value;
    }
  }
  EXPECT_GT(prefix_samples, 0u);
}

TEST(TraceCounters, WindowOccupancyStaysWithinDepthAndDrainsToZero) {
  const TraceRecorder rec = RecordHierRs();
  // Per link stream, in-flight window occupancy is bounded below by zero
  // and every stream's final sample is a drained 0.
  std::map<std::pair<int, std::string>, double> final_value;
  size_t samples = 0;
  for (const auto& e : rec.events()) {
    if (e.phase != Phase::kCounter || e.category != "in_flight") continue;
    EXPECT_GE(e.value, 0.0);
    final_value[std::make_pair(e.pid, e.name)] = e.value;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
  for (const auto& [key, v] : final_value) {
    EXPECT_EQ(v, 0.0) << key.second << " on pid " << key.first
                      << " never drained";
  }
}

TEST(TraceCounters, InflightBytesProjectsUntouchedFlowsAndDrains) {
  // Flow A (0->1) keeps its rate when B joins on the disjoint pair 2->3, so
  // its progress anchor is never refreshed; every in-flight sample must
  // still count A's remaining bytes as of the sample time.
  sim::Simulator s;
  TraceRecorder rec;
  s.set_trace(&rec);
  sim::Network net(&s, 4, /*port_bw_gbps=*/100.0, /*latency_ns=*/0, "nvl");
  net.set_trace_pid(0);
  s.Spawn([](sim::Network* n) -> sim::Coro {
    co_await n->Transfer(0, 1, 100000);
  }(&net));
  s.Spawn([](sim::Network* n) -> sim::Coro {
    co_await sim::Delay{400};
    co_await n->Transfer(2, 3, 50000);
  }(&net));
  s.Run();
  std::vector<std::pair<TimeNs, double>> samples;
  for (const auto& e : rec.events()) {
    if (e.phase == Phase::kCounter && e.name == "nvl.inflight_bytes") {
      samples.emplace_back(e.start, e.value);
    }
  }
  // A runs alone at 100 B/ns from t=0; B (also 100 B/ns) joins at 400 and
  // leaves at 900; A leaves at 1000 and the track drains to 0.
  const std::vector<std::pair<TimeNs, double>> want = {
      {0, 100000.0}, {400, 60000.0 + 50000.0}, {900, 10000.0}, {1000, 0.0}};
  EXPECT_EQ(samples, want);
}

// ---------------------------------------------------------------------------
// Pay-for-use: tracing never changes simulated time
// ---------------------------------------------------------------------------

TEST(TraceInvariance, MakespansBitwiseIdenticalAcrossAllCollectives) {
  const MachineSpec spec = TwoNodeSpec(4);
  const HierConfig cfg;
  const int64_t tiles = 16;
  const uint64_t tb = 64 << 10;
  const int64_t te = 64;
  sim::FaultPlan plan;
  plan.RandomTransients("nic", /*seed=*/7, /*drop_prob=*/0.15,
                        /*spike_prob=*/0.15, /*spike_mult=*/3.0);
  struct Case {
    const char* name;
    std::function<PayloadReport(const sim::FaultPlan*, TraceRecorder*)> run;
  };
  const Case cases[] = {
      {"hier_ag",
       [&](const sim::FaultPlan* p, TraceRecorder* t) {
         return ValidateHierAllGather(spec, tiles, tb, te, cfg, p, t);
       }},
      {"flat_ag",
       [&](const sim::FaultPlan* p, TraceRecorder* t) {
         return ValidateFlatAllGather(spec, tiles, tb, te, cfg, p, t);
       }},
      {"hier_rs",
       [&](const sim::FaultPlan* p, TraceRecorder* t) {
         return ValidateHierReduceScatter(spec, tiles, tb, te, cfg, p, t);
       }},
      {"flat_rs",
       [&](const sim::FaultPlan* p, TraceRecorder* t) {
         return ValidateFlatReduceScatter(spec, tiles, tb, te, cfg, p, t);
       }},
      {"dp_ar",
       [&](const sim::FaultPlan* p, TraceRecorder* t) {
         return ValidateDpAllReduce(spec, tiles, tb, te, cfg, p, t);
       }},
      {"gemm_hier_rs",
       [&](const sim::FaultPlan* p, TraceRecorder* t) {
         return ValidateGemmHierRs(spec, SmallFusedCfg(spec.num_devices), p,
                                   t);
       }},
  };
  for (const Case& c : cases) {
    for (const sim::FaultPlan* p :
         {static_cast<const sim::FaultPlan*>(nullptr),
          static_cast<const sim::FaultPlan*>(&plan)}) {
      TraceRecorder rec;
      const PayloadReport traced = c.run(p, &rec);
      const PayloadReport quiet = c.run(p, nullptr);
      EXPECT_TRUE(traced.ok()) << c.name;
      EXPECT_EQ(traced.makespan, quiet.makespan)
          << c.name << (p ? " (faulted)" : "") << ": tracing changed time";
      EXPECT_GT(rec.size(), 0u) << c.name;
    }
  }
}

TEST(TraceInvariance, FaultedTraceCarriesFaultInstants) {
  const MachineSpec spec = TwoNodeSpec(4);
  sim::FaultPlan plan;
  plan.RandomTransients("nic", /*seed=*/3, /*drop_prob=*/0.3,
                        /*spike_prob=*/0.3, /*spike_mult=*/2.0);
  TraceRecorder rec;
  const PayloadReport r = ValidateHierAllGather(
      spec, /*num_tiles=*/16, 64 << 10, 64, HierConfig{}, &plan, &rec);
  EXPECT_TRUE(r.ok());
  ASSERT_GT(r.faults.drops + r.faults.spikes, 0u);
  size_t instants = 0;
  for (const auto& e : rec.events()) {
    if (e.phase == Phase::kInstant && e.name.rfind("fault.", 0) == 0) {
      ++instants;
    }
  }
  EXPECT_GE(instants, 1u);
}

// ---------------------------------------------------------------------------
// Profiler oracles
// ---------------------------------------------------------------------------

// Compute-only trace with cost-model wave durations: exposed comm must be
// *exactly* zero and compute utilization exactly busy/makespan.
TEST(ProfileOracle, ComputeOnlyExposesZeroComm) {
  const MachineSpec spec = MachineSpec::H800x8();
  const sim::CostModel cost(spec);
  // Three back-to-back waves then one idle wave: busy = 3T, makespan = 4T.
  const TimeNs T =
      cost.MemoryBound(/*bytes=*/8ull << 20, spec.sms_per_device);
  ASSERT_GT(T, 0);
  TraceRecorder rec;
  const int tid = rec.Track(0, "sms");
  for (int w = 0; w < 3; ++w) {
    rec.AddSpan(0, tid, "wave", w * T, (w + 1) * T, sim::kCatCompute);
  }
  rec.AddSpan(0, tid, "tail", 4 * T, 4 * T, sim::kCatCompute);  // pins t1
  const sim::Profile p = sim::BuildProfile(rec);
  std::string why;
  EXPECT_TRUE(p.Consistent(&why)) << why;
  EXPECT_EQ(p.makespan, 4 * T);
  EXPECT_EQ(p.exposed_comm, 0);
  EXPECT_EQ(p.exposed_comm_frac, 0.0);
  ASSERT_EQ(p.ranks.size(), 1u);
  EXPECT_EQ(p.ranks[0].compute_busy, 3 * T);
  EXPECT_EQ(p.compute_util, 0.75);  // 3T/4T, exact in binary
}

// Comm-only gapless chain on one track: the whole makespan is exposed and
// the critical-path walk must recover it exactly.
TEST(ProfileOracle, CommOnlyCriticalPathEqualsMakespan) {
  TraceRecorder rec;
  const int tid = rec.Track(5, "rail0");
  const TimeNs T = 12345;
  const int chunks = 6;
  for (int i = 0; i < chunks; ++i) {
    rec.AddSpan(5, tid, "chunk" + std::to_string(i), i * T, (i + 1) * T,
                sim::kCatComm);
  }
  const sim::Profile p = sim::BuildProfile(rec);
  std::string why;
  EXPECT_TRUE(p.Consistent(&why)) << why;
  EXPECT_EQ(p.makespan, chunks * T);
  EXPECT_EQ(p.critical_path, p.makespan);
  EXPECT_EQ(p.critical_span, p.makespan);
  ASSERT_EQ(p.ranks.size(), 1u);
  EXPECT_EQ(p.ranks[0].exposed_comm, chunks * T);  // nothing hides it
  EXPECT_EQ(p.ranks[0].compute_busy, 0);
}

// Comm fully nested under compute on the same pid: zero exposed comm even
// though comm_busy is large (the overlap case the fused kernels exist for).
TEST(ProfileOracle, OverlappedCommIsNotExposed) {
  TraceRecorder rec;
  const int sm = rec.Track(2, "sms");
  const int lane = rec.Track(2, "lane");
  rec.AddSpan(2, sm, "gemm", 0, 1000, sim::kCatCompute);
  rec.AddSpan(2, lane, "push", 100, 900, sim::kCatComm);
  const sim::Profile p = sim::BuildProfile(rec);
  ASSERT_EQ(p.ranks.size(), 1u);
  EXPECT_EQ(p.ranks[0].comm_busy, 800);
  EXPECT_EQ(p.ranks[0].exposed_comm, 0);
  EXPECT_EQ(p.exposed_comm_frac, 0.0);
}

TEST(ProfileOracle, RealTraceIsInternallyConsistent) {
  const TraceRecorder rec = RecordHierRs();
  const sim::Profile p = sim::BuildProfile(rec);
  std::string why;
  EXPECT_TRUE(p.Consistent(&why)) << why;
  EXPECT_GT(p.makespan, 0);
  EXPECT_LE(p.critical_path, p.makespan);
  EXPECT_GT(p.critical_path, 0);
  EXPECT_GT(p.wire_util, 0.0);
  EXPECT_LE(p.wire_util, 1.0);
  EXPECT_FALSE(p.path.empty());
  EXPECT_FALSE(sim::FormatCriticalPath(p).empty());
}

}  // namespace
}  // namespace tilelink::multinode
