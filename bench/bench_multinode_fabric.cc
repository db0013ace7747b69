// Multi-node fabric smoke: hierarchical vs flat collectives at 2x8, and
// the DP gradient-sync NIC-knob search, on the paper's H800x16 machine.
//
// Exit is nonzero if (a) a hierarchical collective loses to its flat
// single-stage baseline at any tested shard size, or (b) the tuner's
// NIC-knob search returns a DP-sync config worse than the hand-picked
// two-node defaults. scripts/ci.sh runs this as the 16-GPU smoke stage.
//
// Flags: --json <path> records every latency and ratio. --payload
// additionally runs the functional 2x8 validation first: every collective
// moves real per-tile data, must match the single-rank references
// bit-exactly with zero consistency violations, and an injected
// prefix-publication fault on the NIC rail stage must be *caught* by the
// checker. --fused gates the fused GEMM + hierarchical ReduceScatter
// kernel: at 2x8 it must beat the layer-level GEMM-then-HierRS compose on
// simulated makespan at every tested shape, the joint-space tuner must
// never lose to the hand-picked seed, and the functional run must be
// bit-exact with zero checker violations. --ag-fused gates the generated
// fused hierarchical AllGather + GEMM kernel the same way (beats the
// HierAG-then-GEMM compose at every shape including small-m, tuner never
// loses to the seed, functional and fault-plan runs checker-clean and
// bit-exact) and exports fabric.ag_fused_speedup plus the generated
// kernel's exposed-communication fraction. --faults runs the deterministic
// fault sweep on a 4-NIC-rail 2x8: targeted drops, latency spikes, seeded
// random transient mixes and rail death must all leave every collective and
// the fused kernel bit-exact with zero checker violations, every fault row
// (and the --ag-fused fault gate) must retry each failed attempt exactly
// once (retries == drops + timeouts), and killing one of four rails at t=0
// must cost every collective and the fused kernel at most 4/3 (+10%) of
// its fault-free makespan. The timing gates below are identical
// with or without any flag. Every invocation also runs the fabric
// timeline/profiler gate (valid chrome-trace JSON, a >= 3-arrow
// producer->ring->rail->reduce flow chain, internally consistent overlap
// numbers, tracing-on/off bitwise makespan identity); --trace <path> saves
// the recorded timeline for chrome://tracing / Perfetto.
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/fault.h"
#include "sim/profile.h"
#include "sim/trace.h"
#include "tilelink/multinode/hier_collectives.h"
#include "tilelink/multinode/multinode_tuning.h"
#include "tilelink/multinode/payload_validation.h"

namespace {

// The fabric's retransmit policy retries every failed attempt exactly once
// (the last one throws instead): a policy that swallows a failure or
// retries one twice breaks this balance.
bool RetriesBalance(const tilelink::sim::FaultStats& f) {
  return f.retries == f.drops + f.timeouts;
}

// The fused gates' family: the e2e layer seed with its GEMM k-tile pinned
// at 64 (the layer seed grows bk with k), the tiling the gates' numbers
// were taken with.
tilelink::tl::KernelFamily AtGateTiling(tilelink::tl::KernelFamily family) {
  family.seed.gemm.bk = 64;
  return family;
}

bool RunPayloadValidation(const tilelink::sim::MachineSpec& spec,
                          tilelink::bench::BenchReport* report) {
  using namespace tilelink::multinode;
  const HierConfig cfg;
  const int64_t tiles = 24;
  const uint64_t tile_bytes = 64 << 10;
  const int64_t tile_elems = 128;
  bool ok = true;

  std::printf("=== Functional payload validation (2x8, bit-exact + checker) "
              "===\n");
  struct Case {
    const char* name;
    PayloadReport r;
  };
  const Case cases[] = {
      {"hier_ag", ValidateHierAllGather(spec, tiles, tile_bytes, tile_elems,
                                        cfg)},
      {"hier_rs", ValidateHierReduceScatter(spec, tiles, tile_bytes,
                                            tile_elems, cfg)},
      {"flat_ag", ValidateFlatAllGather(spec, tiles, tile_bytes, tile_elems,
                                        cfg)},
      {"flat_rs", ValidateFlatReduceScatter(spec, tiles, tile_bytes,
                                            tile_elems, cfg)},
      {"dp_ar", ValidateDpAllReduce(spec, tiles, tile_bytes, tile_elems,
                                    cfg)},
  };
  for (const Case& c : cases) {
    std::printf("  %-8s bit_exact=%d violations=%zu\n", c.name,
                c.r.bit_exact ? 1 : 0, c.r.violations);
    report->Record(std::string("multinode.payload.") + c.name + ".ok",
                   c.r.ok() ? 1.0 : 0.0);
    ok = ok && c.r.ok();
  }

  // Fault canary: drop one rail chunk's in-order publication (the §4.2
  // acquire/release inversion on the NIC stage) — the checker must report
  // it, not let a silently wrong answer through.
  tilelink::sim::FaultPlan fault;
  fault.ReorderRailChunk(/*src_rank=*/0, /*chunk=*/0);
  const PayloadReport f = ValidateHierAllGather(spec, tiles, tile_bytes,
                                                tile_elems, cfg, &fault);
  std::printf("  fault    violations=%zu (must be >= 1)\n", f.violations);
  report->Record("multinode.payload.fault_detected",
                 f.violations >= 1 ? 1.0 : 0.0);
  ok = ok && f.violations >= 1;
  std::printf("%s\n\n", ok ? "payload validation OK"
                           : "payload validation FAILED");
  return ok;
}

bool RunFusedGate(const tilelink::sim::MachineSpec& spec,
                  tilelink::bench::BenchReport* report) {
  using namespace tilelink;
  using namespace tilelink::multinode;
  bool ok = true;
  std::printf("=== Fused GEMM + hier RS vs layer-level compose (2x8) ===\n");
  std::printf("%-22s %11s %11s %8s %11s\n", "shape", "compose", "fused",
              "ratio", "tuned");
  struct Shape {
    const char* name;
    tl::MlpPartShape s;
  };
  // Row-parallel projection shapes of TP16 transformer layers at e2e batch
  // scale (m = batch x seq tokens): out-proj (k = h/16) and MLP part 2
  // (k = inner/16). Small m leaves the ring role too few chunks to overlap
  // profitably — that regime stays with the layer-level compose.
  const Shape shapes[] = {
      {"out_proj_4k", {16384, 256, 4096}},
      {"mlp2_4k", {16384, 688, 4096}},
      {"out_proj_8k", {8192, 512, 8192}},
  };
  for (const Shape& sh : shapes) {
    const tl::KernelFamily family =
        AtGateTiling(tl::GemmRsFamily(spec, sh.s));
    const tl::TuneCandidate& seed = family.seed;
    const sim::TimeNs fused = family.evaluate(seed);
    const sim::TimeNs compose = SimulateGemmThenHierRs(spec, sh.s, seed);
    const tl::TuneResult tuned = tl::Tune(family);
    const double ratio =
        static_cast<double>(compose) / static_cast<double>(fused);
    std::printf("%-22s %9.3fms %9.3fms %7.2fx %9.3fms  %s\n", sh.name,
                bench::ToMsD(compose), bench::ToMsD(fused), ratio,
                bench::ToMsD(tuned.best_cost), tuned.best.Describe().c_str());
    const std::string prefix = std::string("multinode.fused.") + sh.name;
    report->Record(prefix + ".compose_ms", bench::ToMsD(compose));
    report->Record(prefix + ".fused_ms", bench::ToMsD(fused));
    report->Record(prefix + ".tuned_ms", bench::ToMsD(tuned.best_cost));
    report->Record(prefix + ".overlap_speedup", ratio);
    ok = ok && fused < compose && tuned.best_cost <= fused;
  }
  // Functional gate: real data through all four roles, bit-exact with zero
  // consistency violations (including the write-write audit).
  tl::GemmRsConfig small;
  small.m = static_cast<int64_t>(spec.num_devices) * 16;
  small.k = 16;
  small.n = 16;
  small.gemm = {8, 16, 8};
  small.rs_block_m = 8;
  const PayloadReport r = ValidateGemmHierRs(spec, small);
  std::printf("  functional: bit_exact=%d violations=%zu\n",
              r.bit_exact ? 1 : 0, r.violations);
  report->Record("multinode.fused.payload_ok", r.ok() ? 1.0 : 0.0);
  ok = ok && r.ok();
  std::printf("%s\n\n", ok ? "fused gate OK" : "fused gate FAILED");
  return ok;
}

// --ag-fused: the generated fused hierarchical AllGather + GEMM kernel
// (the OverlapPlanner's first new kernel, kernels/ag_gemm_hier) against the
// HierAllGather-then-GEMM layer compose, including a small-m shape where
// the planner column-splits the ring role over the K width. A traced
// functional run feeds the critical-path profiler so the generated
// kernel's exposed-communication fraction lands in --json, and a
// fault-plan run must stay bit-exact with zero checker violations.
bool RunAgFusedGate(const tilelink::sim::MachineSpec& spec,
                    tilelink::bench::BenchReport* report) {
  using namespace tilelink;
  using namespace tilelink::multinode;
  bool ok = true;
  std::printf(
      "=== Generated fused hier AG + GEMM vs layer-level compose (2x8) ===\n");
  std::printf("%-22s %11s %11s %8s %11s\n", "shape", "compose", "fused",
              "ratio", "tuned");
  struct Shape {
    const char* name;
    tl::MlpPartShape s;
  };
  // Column-parallel projection shapes of TP16 transformer layers at e2e
  // batch scale (m = batch x seq tokens, k = hidden gathered over the NIC):
  // QKV (n = 3h/16) and MLP part 1 (n = inner/16). qkv_small is the
  // small-m regime: m_per_rank = 128 leaves a single ring chunk per block,
  // so the planner column-splits the K width (S > 1) instead of losing to
  // the layer-level compose.
  const Shape shapes[] = {
      {"qkv_4k", {16384, 4096, 768}},
      {"mlp1_4k", {16384, 4096, 1024}},
      {"qkv_small", {2048, 4096, 1024}},
  };
  double min_speedup = 0.0;
  for (const Shape& sh : shapes) {
    const tl::KernelFamily family =
        AtGateTiling(tl::AgGemmFamily(spec, sh.s));
    const tl::TuneCandidate& seed = family.seed;
    const sim::TimeNs fused = family.evaluate(seed);
    const sim::TimeNs compose = SimulateHierAgThenGemm(spec, sh.s, seed);
    const tl::TuneResult tuned = tl::Tune(family);
    const double ratio =
        static_cast<double>(compose) / static_cast<double>(fused);
    std::printf("%-22s %9.3fms %9.3fms %7.2fx %9.3fms  %s\n", sh.name,
                bench::ToMsD(compose), bench::ToMsD(fused), ratio,
                bench::ToMsD(tuned.best_cost), tuned.best.Describe().c_str());
    const std::string prefix = std::string("multinode.ag_fused.") + sh.name;
    report->Record(prefix + ".compose_ms", bench::ToMsD(compose));
    report->Record(prefix + ".fused_ms", bench::ToMsD(fused));
    report->Record(prefix + ".tuned_ms", bench::ToMsD(tuned.best_cost));
    report->Record(prefix + ".overlap_speedup", ratio);
    min_speedup = min_speedup == 0.0 ? ratio : std::min(min_speedup, ratio);
    ok = ok && fused < compose && tuned.best_cost <= fused;
  }
  // The CI-gated headline number: the worst compose/fused ratio across the
  // gate shapes (> 1 means the generated kernel wins everywhere).
  report->Record("fabric.ag_fused_speedup", min_speedup);

  // Small-m planner decision: the qkv_small shape must actually trigger
  // the column split (the ring role would otherwise run one chunk per
  // block and serialize against the rail).
  {
    rt::World world(spec, rt::ExecMode::kTimingOnly);
    const tl::KernelFamily family =
        AtGateTiling(tl::AgGemmFamily(spec, shapes[2].s));
    tl::AgGemmHier kernel(
        world, tl::AgGemmHierFromCandidate(shapes[2].s, family.seed));
    std::printf("  small-m planner col_splits=%d (need > 1)\n",
                kernel.col_splits());
    report->Record("multinode.ag_fused.small_m_col_splits",
                   static_cast<double>(kernel.col_splits()));
    ok = ok && kernel.col_splits() > 1;
  }

  // Functional gate with the timeline attached: real data through the
  // publish/ring/rail/consumer roles, bit-exact with zero violations, and
  // the profiler's exposed-communication fraction for the generated
  // kernel exported next to the speedup.
  tl::AgGemmHierConfig small;
  small.m = static_cast<int64_t>(spec.num_devices) * 16;
  small.k = 16;
  small.n = 16;
  small.gemm = {8, 16, 8};
  small.comm_tile_m = 8;
  sim::TraceRecorder rec;
  const PayloadReport r =
      ValidateAgGemmHier(spec, small, nullptr, &rec, /*trace_pid_base=*/0);
  const sim::Profile prof = sim::BuildProfile(rec);
  std::printf("  functional: bit_exact=%d violations=%zu "
              "exposed_comm_frac=%.3f\n",
              r.bit_exact ? 1 : 0, r.violations, prof.exposed_comm_frac);
  report->Record("multinode.ag_fused.payload_ok", r.ok() ? 1.0 : 0.0);
  report->Record("fabric.ag_fused_exposed_comm_frac", prof.exposed_comm_frac);
  ok = ok && r.ok();

  // Fault-plan gate: transient NIC/NVLink drops and spikes must leave the
  // generated kernel bit-exact with zero violations (and must actually
  // have injected something).
  sim::FaultPlan plan;
  plan.RandomTransients("nic", /*seed=*/1ull, /*drop_prob=*/0.08,
                        /*spike_prob=*/0.10, /*spike_mult=*/3.0);
  plan.RandomTransients("nvlink", /*seed=*/0x9e3779b97f4a7c15ull,
                        /*drop_prob=*/0.02, /*spike_prob=*/0.05,
                        /*spike_mult=*/2.0);
  const PayloadReport fr = ValidateAgGemmHier(spec, small, &plan);
  const uint64_t injected = fr.faults.drops + fr.faults.spikes;
  std::printf("  faulted: bit_exact=%d violations=%zu drops=%llu "
              "spikes=%llu retries=%llu\n",
              fr.bit_exact ? 1 : 0, fr.violations,
              (unsigned long long)fr.faults.drops,
              (unsigned long long)fr.faults.spikes,
              (unsigned long long)fr.faults.retries);
  const bool fault_ok = fr.ok() && injected > 0 && RetriesBalance(fr.faults);
  report->Record("multinode.ag_fused.fault_ok", fault_ok ? 1.0 : 0.0);
  ok = ok && fault_ok;

  std::printf("%s\n\n", ok ? "ag-fused gate OK" : "ag-fused gate FAILED");
  return ok;
}

// Deterministic fault sweep (--faults): every schedule must leave every
// collective (and the fused kernel) bit-exact with zero checker violations
// and retry each failed attempt exactly once; rail death must additionally
// keep every target within the surviving-bandwidth bound.
bool RunFaultSweep(const tilelink::sim::MachineSpec& base,
                   tilelink::bench::BenchReport* report) {
  using namespace tilelink;
  using namespace tilelink::multinode;
  bool ok = true;
  std::printf("=== Fault sweep: retry/backoff + rail failover "
              "(2x8, 4 NIC rails) ===\n");

  sim::MachineSpec spec = base;
  spec.nic_rails = 4;
  HierConfig cfg;
  cfg.nic_chunk_tiles = 4;  // 48 tiles -> 12 NIC chunks per stream:
  cfg.staging_depth = 12;   // divisible by 4 rails and by 3 survivors
  const int64_t tiles = 48;
  const uint64_t tile_bytes = 512 << 10;  // bandwidth-bound NIC stage
  const int64_t tile_elems = 128;
  const int per_node = spec.devices_per_node;

  // NIC edges the 2x8 collectives use: rail-peer pairs (r, r+8) for the
  // hierarchical collectives / DP groups / fused kernel, ring node-boundary
  // hops for the flat baselines.
  struct Edge {
    int src, dst;
  };
  const Edge nic_edges[] = {{0, per_node},
                            {per_node, 0},
                            {per_node - 1, per_node},
                            {per_node, per_node - 1},
                            {2 * per_node - 1, 0},
                            {0, 2 * per_node - 1}};

  std::vector<std::pair<std::string, sim::FaultPlan>> schedules;
  {
    sim::FaultPlan drops;
    for (const Edge& e : nic_edges) {
      drops.DropTransfer("nic", e.src, e.dst, 0);
      drops.DropTransfer("nic", e.src, e.dst, 3);
    }
    schedules.emplace_back("targeted_drop", std::move(drops));

    sim::FaultPlan spikes;
    for (const Edge& e : nic_edges) {
      spikes.SpikeTransfer("nic", e.src, e.dst, 0, 4.0);
      spikes.SpikeTransfer("nic", e.src, e.dst, 2, 3.0);
    }
    schedules.emplace_back("targeted_spike", std::move(spikes));

    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      sim::FaultPlan mix;
      mix.RandomTransients("nic", seed, /*drop_prob=*/0.08,
                           /*spike_prob=*/0.10, /*spike_mult=*/3.0);
      mix.RandomTransients("nvlink", seed * 0x9e3779b97f4a7c15ull,
                           /*drop_prob=*/0.02, /*spike_prob=*/0.05,
                           /*spike_mult=*/2.0);
      schedules.emplace_back("random_mix_s" + std::to_string(seed),
                             std::move(mix));
    }
  }

  struct Target {
    const char* name;
    std::function<PayloadReport(const sim::FaultPlan*)> run;
  };
  tl::GemmRsConfig fused;
  fused.m = static_cast<int64_t>(spec.num_devices) * 16;
  fused.k = 16;
  fused.n = 16;
  fused.gemm = {8, 16, 8};
  fused.rs_block_m = 8;
  const Target targets[] = {
      {"hier_ag",
       [&](const sim::FaultPlan* p) {
         return ValidateHierAllGather(spec, tiles, tile_bytes, tile_elems,
                                      cfg, p);
       }},
      {"hier_rs",
       [&](const sim::FaultPlan* p) {
         return ValidateHierReduceScatter(spec, tiles, tile_bytes,
                                          tile_elems, cfg, p);
       }},
      {"flat_ag",
       [&](const sim::FaultPlan* p) {
         return ValidateFlatAllGather(spec, tiles, tile_bytes, tile_elems,
                                      cfg, p);
       }},
      {"flat_rs",
       [&](const sim::FaultPlan* p) {
         return ValidateFlatReduceScatter(spec, tiles, tile_bytes,
                                          tile_elems, cfg, p);
       }},
      {"dp_ar",
       [&](const sim::FaultPlan* p) {
         return ValidateDpAllReduce(spec, tiles, tile_bytes, tile_elems, cfg,
                                    p);
       }},
      {"gemm_hier_rs",
       [&](const sim::FaultPlan* p) {
         return ValidateGemmHierRs(spec, fused, p);
       }},
  };

  // Transient schedules: payload bit-exact, zero violations, every failed
  // attempt retried once, and the schedule must actually have injected
  // something (so a silently inert plan cannot green-light the gate).
  for (const auto& [sched_name, plan] : schedules) {
    for (const Target& t : targets) {
      const PayloadReport r = t.run(&plan);
      const uint64_t injected = r.faults.drops + r.faults.spikes;
      const bool pass = r.ok() && injected > 0 && RetriesBalance(r.faults);
      std::printf("  %-16s %-13s bit_exact=%d violations=%zu drops=%llu "
                  "spikes=%llu retries=%llu\n",
                  sched_name.c_str(), t.name, r.bit_exact ? 1 : 0,
                  r.violations, (unsigned long long)r.faults.drops,
                  (unsigned long long)r.faults.spikes,
                  (unsigned long long)r.faults.retries);
      const std::string key =
          "multinode.faults." + sched_name + "." + t.name;
      report->Record(key + ".ok", pass ? 1.0 : 0.0);
      report->Record(key + ".retries", static_cast<double>(r.faults.retries));
      report->Record(key + ".drops", static_cast<double>(r.faults.drops));
      report->Record(key + ".spikes", static_cast<double>(r.faults.spikes));
      report->Record(key + ".timeouts",
                     static_cast<double>(r.faults.timeouts));
      report->Record(key + ".checker_retired",
                     static_cast<double>(r.checker_retired));
      report->Record(key + ".checker_live",
                     static_cast<double>(r.checker_live));
      ok = ok && pass;
    }
  }

  // Rail death at t=0: one of four rails dead for the whole run. Every
  // send, host link-stream chunk and device push alike, rides the fabric's
  // least-loaded live rail, so no chunk lands on the dead rail and a
  // bandwidth-bound stream pays at most 4/3 (+10% pipeline headroom).
  const double bound = 4.0 / 3.0 * 1.10;
  for (const Target& t : targets) {
    const PayloadReport clean = t.run(nullptr);
    sim::FaultPlan death;
    death.DegradeRail("nic", /*port=*/-1, /*rail=*/3, /*at=*/0,
                      /*fraction=*/0.0);
    const PayloadReport r = t.run(&death);
    const double ratio = static_cast<double>(r.makespan) /
                         static_cast<double>(clean.makespan);
    const bool pass = r.ok() && ratio <= bound && RetriesBalance(r.faults);
    std::printf("  rail_death_t0    %-13s bit_exact=%d violations=%zu "
                "ratio=%.3f (bound %.3f)\n",
                t.name, r.bit_exact ? 1 : 0, r.violations, ratio, bound);
    report->Record(std::string("multinode.faults.rail_death_t0.") + t.name +
                       ".ok",
                   pass ? 1.0 : 0.0);
    report->Record(std::string("multinode.faults.rail_death_t0.") + t.name +
                       ".ratio",
                   ratio);
    ok = ok && pass;

    // Mid-run death: later chunks skip the dead rail, and flows caught in
    // flight on it park and recover via ack-timeout; gate on
    // correctness + completion. Early enough that the NIC stage is still
    // active (by half the makespan the rail streams have drained).
    sim::FaultPlan mid;
    mid.DegradeRail("nic", /*port=*/-1, /*rail=*/1,
                    /*at=*/clean.makespan / 8, /*fraction=*/0.0);
    const PayloadReport m = t.run(&mid);
    std::printf("  rail_death_mid   %-13s bit_exact=%d violations=%zu "
                "retries=%llu\n",
                t.name, m.bit_exact ? 1 : 0, m.violations,
                (unsigned long long)m.faults.retries);
    const bool mid_pass = m.ok() && RetriesBalance(m.faults);
    report->Record(std::string("multinode.faults.rail_death_mid.") + t.name +
                       ".ok",
                   mid_pass ? 1.0 : 0.0);
    ok = ok && mid_pass;
  }

  std::printf("%s\n\n", ok ? "fault sweep OK" : "fault sweep FAILED");
  return ok;
}

// Fabric timeline + critical-path profiler gate: re-run two representative
// functional workloads with one TraceRecorder attached (the fused
// GEMM+hier-RS kernel at pid base 0, HierReduceScatter at pid base 100 —
// disjoint pid blocks in one timeline), then audit the recording
// end-to-end: the serialized chrome-trace JSON must parse, the
// producer -> ring chunk -> rail chunk -> reduce flow chain must be present
// (>= 3 arrows), the profiler's overlap numbers must be internally
// consistent, and re-running both workloads *without* the recorder must
// reproduce the traced makespans bitwise (tracing is observation only).
// With --faults, a third traced run carries an active FaultPlan and the
// timeline must surface fault.* instants. `--trace <path>` saves the
// timeline; the fabric.* keys land in --json and scripts/ci.sh gates them.
bool RunTimelineProfile(const tilelink::sim::MachineSpec& spec,
                        tilelink::bench::BenchReport* report,
                        bool with_faults) {
  using namespace tilelink;
  using namespace tilelink::multinode;
  bool ok = true;
  std::printf("=== Fabric timeline + critical-path profiler ===\n");

  sim::TraceRecorder rec;
  tl::GemmRsConfig small;
  small.m = static_cast<int64_t>(spec.num_devices) * 16;
  small.k = 16;
  small.n = 16;
  small.gemm = {8, 16, 8};
  small.rs_block_m = 8;
  const HierConfig cfg;
  const int64_t tiles = 24;
  const uint64_t tile_bytes = 64 << 10;
  const int64_t tile_elems = 128;
  const PayloadReport fused =
      ValidateGemmHierRs(spec, small, nullptr, &rec, /*trace_pid_base=*/0);
  const PayloadReport hrs = ValidateHierReduceScatter(
      spec, tiles, tile_bytes, tile_elems, cfg, nullptr, &rec,
      /*trace_pid_base=*/100);
  ok = ok && fused.ok() && hrs.ok();

  std::string err;
  const bool valid = sim::TraceRecorder::ValidateJson(rec.ToJson(), &err);
  if (!valid) std::printf("  trace JSON invalid: %s\n", err.c_str());
  const int chain = sim::LongestFlowChain(rec);
  const sim::Profile prof = sim::BuildProfile(rec);
  std::string why;
  const bool consistent = prof.Consistent(&why);
  if (!consistent) std::printf("  profile inconsistent: %s\n", why.c_str());

  std::printf("  events=%zu json_valid=%d flow_chain=%d (need >= 3)\n",
              rec.size(), valid ? 1 : 0, chain);
  std::printf("  compute_util=%.3f wire_util=%.3f exposed_comm_frac=%.3f\n",
              prof.compute_util, prof.wire_util, prof.exposed_comm_frac);
  std::printf("%s", sim::FormatCriticalPath(prof).c_str());

  report->Record("fabric.trace_events", static_cast<double>(rec.size()));
  report->Record("fabric.trace_valid", valid ? 1.0 : 0.0);
  report->Record("fabric.flow_chain", static_cast<double>(chain));
  report->Record("fabric.compute_util", prof.compute_util);
  report->Record("fabric.wire_util", prof.wire_util);
  report->Record("fabric.exposed_comm_frac", prof.exposed_comm_frac);
  report->Record("fabric.critical_path_ns",
                 static_cast<double>(prof.critical_path));
  report->Record("fabric.critical_span_ns",
                 static_cast<double>(prof.critical_span));
  report->Record("fabric.makespan_ns", static_cast<double>(prof.makespan));
  ok = ok && valid && chain >= 3 && consistent &&
       prof.critical_path <= prof.makespan;

  // Pay-for-use gate: untraced re-runs must land on bitwise-identical
  // makespans — attaching the recorder may not perturb scheduling.
  const PayloadReport fused_quiet = ValidateGemmHierRs(spec, small);
  const PayloadReport hrs_quiet = ValidateHierReduceScatter(
      spec, tiles, tile_bytes, tile_elems, cfg);
  const bool invariant = fused_quiet.makespan == fused.makespan &&
                         hrs_quiet.makespan == hrs.makespan;
  std::printf("  trace-off makespans identical: %d\n", invariant ? 1 : 0);
  report->Record("fabric.trace_invariant", invariant ? 1.0 : 0.0);
  ok = ok && invariant;

  if (with_faults) {
    sim::MachineSpec fspec = spec;
    fspec.nic_rails = 4;
    HierConfig fcfg;
    fcfg.nic_chunk_tiles = 4;
    fcfg.staging_depth = 12;
    sim::FaultPlan plan;
    plan.RandomTransients("nic", /*seed=*/1ull, /*drop_prob=*/0.08,
                          /*spike_prob=*/0.10, /*spike_mult=*/3.0);
    const PayloadReport fr =
        ValidateHierAllGather(fspec, /*num_tiles=*/48, 512 << 10, tile_elems,
                              fcfg, &plan, &rec, /*trace_pid_base=*/200);
    std::size_t instants = 0;
    for (const auto& e : rec.events()) {
      if (e.phase == sim::TraceRecorder::Phase::kInstant &&
          e.name.rfind("fault.", 0) == 0) {
        ++instants;
      }
    }
    std::printf("  fault instants=%zu (must be >= 1)\n", instants);
    report->Record("fabric.fault_instants", static_cast<double>(instants));
    ok = ok && fr.ok() && instants >= 1;
  }

  if (!report->trace_path().empty()) {
    rec.Save(report->trace_path());
    std::printf("  trace written to %s (%zu events)\n",
                report->trace_path().c_str(), rec.size());
  }
  std::printf("%s\n\n",
              ok ? "timeline profile OK" : "timeline profile FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tilelink;
  using namespace tilelink::bench;
  BenchReport report(argc, argv);
  const sim::MachineSpec spec = sim::MachineSpec::H800x16();
  const multinode::HierConfig cfg;
  bool ok = true;
  bool faults_flag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--payload") == 0) {
      ok = RunPayloadValidation(spec, &report) && ok;
    } else if (std::strcmp(argv[i], "--fused") == 0) {
      ok = RunFusedGate(spec, &report) && ok;
    } else if (std::strcmp(argv[i], "--ag-fused") == 0) {
      ok = RunAgFusedGate(spec, &report) && ok;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults_flag = true;
      ok = RunFaultSweep(spec, &report) && ok;
    }
  }
  ok = RunTimelineProfile(spec, &report, faults_flag) && ok;

  std::printf("=== Multi-node fabric: 2x8 H800, hierarchical vs flat ===\n");
  ResultTable table("tile-granular collectives (2x8, per-rank shard)",
                    {"hier", "flat"});
  struct Shape {
    const char* name;
    int64_t tiles;
    uint64_t tile_bytes;
  };
  // 4 MiB to 64 MiB per-rank shards: the AG/RS volumes of the paper's
  // figure-8/11 layer shapes at TP=8.
  const Shape shapes[] = {{"ag_4MiB", 16, 256 << 10},
                          {"ag_16MiB", 32, 512 << 10},
                          {"ag_64MiB", 64, 1 << 20}};
  for (const Shape& s : shapes) {
    const sim::TimeNs hier =
        multinode::SimulateHierAllGather(spec, s.tiles, s.tile_bytes, cfg);
    const sim::TimeNs flat =
        multinode::SimulateFlatAllGather(spec, s.tiles, s.tile_bytes, cfg);
    table.Add(s.name, "hier", ToMsD(hier));
    table.Add(s.name, "flat", ToMsD(flat));
    ok = ok && hier < flat;
    const std::string rs_name =
        std::string("rs") + (s.name + 2);  // same volumes, RS direction
    const sim::TimeNs hier_rs = multinode::SimulateHierReduceScatter(
        spec, s.tiles, s.tile_bytes, cfg);
    const sim::TimeNs flat_rs = multinode::SimulateFlatReduceScatter(
        spec, s.tiles, s.tile_bytes, cfg);
    table.Add(rs_name, "hier", ToMsD(hier_rs));
    table.Add(rs_name, "flat", ToMsD(flat_rs));
    ok = ok && hier_rs < flat_rs;
  }
  // Relative view: flat_time / hier_time, higher means hierarchy wins more.
  table.Print("flat");
  table.Export(&report, "multinode.collectives", "flat");

  std::printf("\n=== DP gradient sync: NIC-knob search vs defaults ===\n");
  std::printf("%-12s %13s %13s %9s  %s\n", "grad bytes", "default", "tuned",
              "ratio", "tuned knobs");
  for (uint64_t bytes : {48ull << 20, 128ull << 20, 448ull << 20}) {
    const tl::KernelFamily family = multinode::DpSyncFamily(spec, bytes);
    const sim::TimeNs def = family.evaluate(family.seed);
    const tl::TuneResult r = tl::Tune(family);
    const double ratio = static_cast<double>(def) /
                         static_cast<double>(r.best_cost);
    std::printf("%9lluMiB %11.3fms %11.3fms %8.2fx  nic_chunk=%d staging=%d\n",
                (unsigned long long)(bytes >> 20), ToMsD(def),
                ToMsD(r.best_cost), ratio, r.best.nic_chunk_tiles,
                r.best.staging_depth);
    const std::string prefix =
        "multinode.dp_sync." + std::to_string(bytes >> 20) + "MiB";
    report.Record(prefix + ".default_ms", ToMsD(def));
    report.Record(prefix + ".tuned_ms", ToMsD(r.best_cost));
    report.Record(prefix + ".speedup", ratio);
    ok = ok && r.best_cost <= def;
  }

  report.WriteJson();
  if (!ok) {
    std::printf("\nFAIL: hierarchical lost to flat, a tuned DP-sync config "
                "lost to the hand-picked defaults, (with --payload) the "
                "functional validation failed, (with --fused) the fused "
                "GEMM+hier-RS kernel lost to the layer-level compose or its "
                "functional run failed, (with --ag-fused) the generated "
                "hier-AG+GEMM kernel lost to the compose or its functional/"
                "faulted run failed, or the fabric timeline/profiler "
                "gate failed.\n");
    return 1;
  }
  std::printf("\nOK: hierarchical beats flat at 2x8; tuned DP-sync configs "
              "are never worse than the defaults.\n");
  return 0;
}
