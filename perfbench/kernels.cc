// `kernels` workload: single-threaded simulations with fixed, hand-picked
// configs and no tuning.
//
//  * fig8 set: the six Table-4 MLP shapes x {cuBLAS+NCCL, AsyncTP, FLUX,
//    TileLink} x {AG+GEMM, GEMM+RS}, configured as bench/bench_fig8_mlp.cc
//    configures them. Its geomeans feed paper_err.
//  * small-shape rows: every TileLink kernel at a shape where World build
//    and kernel construction are not negligible (runtime.world_s,
//    builder.kernel_s), each repeated to check the makespan repeats.
//  * stack-layer ladder: the bare event loop, then bare sim::Network flow
//    storms at 64, 512 and 4096 concurrent flows.
//  * 2x8 segment: gemm_hier_rs and ag_gemm_hier at paper scale, the
//    hierarchical collectives and both fused kernels through the functional
//    multinode::Validate* functions, and three validations under a FaultPlan
//    seeded from --seed that kills one NIC rail and adds transients.
//
// The seed only reaches the fault plan, so every simulated count of this
// workload except the faulted validations is seed-independent.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/flux_baselines.h"
#include "baselines/mlp_baselines.h"
#include "bench.h"
#include "common/rng.h"
#include "compute/moe_routing.h"
#include "runtime/world.h"
#include "sim/cost_model.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/profile.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tilelink/kernels/ag_attention.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/ag_gemm_hier.h"
#include "tilelink/kernels/ag_moe.h"
#include "tilelink/kernels/gemm_hier_rs.h"
#include "tilelink/kernels/gemm_rs.h"
#include "tilelink/kernels/moe_rs.h"
#include "tilelink/multinode/payload_validation.h"

namespace perfbench {
namespace {

using namespace tilelink;

struct MlpShape {
  const char* name;
  int64_t s;  // tokens
  int64_t h;  // hidden
  int64_t i;  // intermediate
};

// Table 4 of the paper (as bench/bench_shapes.h lists it).
constexpr MlpShape kTable4Mlp[] = {
    {"MLP-1", 8192, 4096, 11008}, {"MLP-2", 8192, 4096, 14336},
    {"MLP-3", 8192, 3584, 14336}, {"MLP-4", 8192, 4608, 36864},
    {"MLP-5", 8192, 8192, 28672}, {"MLP-6", 8192, 8192, 29568},
};

// Figure-8 geomean speedups over cuBLAS+NCCL from the paper, as the
// reference line of bench_fig8_mlp prints them: AG+GEMM FLUX 1.34x and
// TileLink 1.27x; GEMM+RS TileLink 1.25x, 1.28x over FLUX; full MLP
// TileLink 1.24x, 101.4% of FLUX.
constexpr double kPaperAgTileLink = 1.27;
constexpr double kPaperAgFlux = 1.34;
constexpr double kPaperRsTileLink = 1.25;
constexpr double kPaperRsFlux = 1.25 / 1.28;
constexpr double kPaperMlpTileLink = 1.24;
constexpr double kPaperMlpFlux = 1.24 / 1.014;

constexpr int kSmallReps = 3;
constexpr int kStormFlows[] = {64, 512, 4096};
constexpr uint64_t kFlowBytes = 1 << 20;
constexpr int kLoopEvents = 2'000'000;
constexpr int kNicRails = 4;

compute::GemmTiling CoarseTiling(int64_t k, int bm = 128, int bn = 256) {
  int64_t bk = k / 8;
  bk -= bk % 64;
  return compute::GemmTiling{bm, bn, static_cast<int>(std::max<int64_t>(bk, 64))};
}

int RsBlock(int64_t m_per_rank, int bm) {
  int64_t chunk =
      std::max<int64_t>(bm, (m_per_rank / 8) - (m_per_rank / 8) % bm);
  while (m_per_rank % chunk != 0) chunk -= bm;
  return static_cast<int>(std::max<int64_t>(bm, chunk));
}

sim::Coro Ping(int count) {
  for (int i = 0; i < count; ++i) co_await sim::Delay{10};
}

sim::Coro OneFlow(sim::Network* net, int src, int dst) {
  co_await net->Transfer(src, dst, kFlowBytes);
}

// Small 2x8 shapes of the functional validations (as the multinode bench).
tl::GemmHierRsConfig SmallGemmHierRs(const sim::MachineSpec& spec) {
  tl::GemmHierRsConfig c;
  c.m = static_cast<int64_t>(spec.num_devices) * 16;
  c.k = 16;
  c.n = 16;
  c.gemm = {8, 16, 8};
  c.rs_block_m = 8;
  return c;
}

tl::AgGemmHierConfig SmallAgGemmHier(const sim::MachineSpec& spec) {
  tl::AgGemmHierConfig c;
  c.m = static_cast<int64_t>(spec.num_devices) * 16;
  c.k = 16;
  c.n = 16;
  c.gemm = {8, 16, 8};
  c.comm_tile_m = 8;
  return c;
}

// Hierarchical collective shape of the validations: 24 tiles of 64 KiB.
constexpr int64_t kCollTiles = 24;
constexpr uint64_t kCollTileBytes = 64 << 10;
constexpr int64_t kCollTileElems = 128;

class Kernels : public Workload {
 public:
  explicit Kernels(const Options& opts) : seed_(opts.seed) {}

  void SetUp() override {
    Rng rng(2024);
    routing_ = compute::RandomRouting(kSmallM, kSmallExperts, kSmallTopk, rng);
    fault_spec_ = sim::MachineSpec::H800x16();
    fault_spec_.nic_rails = kNicRails;
    plan_ = sim::FaultPlan();
    plan_.DegradeRail("nic", /*port=*/-1,
                      /*rail=*/static_cast<int>(seed_ % kNicRails),
                      /*at=*/0, /*fraction=*/0.0);
    plan_.RandomTransients("nic", seed_, /*drop_prob=*/0.08,
                           /*spike_prob=*/0.10, /*spike_mult=*/3.0);
    plan_.RandomTransients("nvlink", seed_ * 0x9e3779b97f4a7c15ull,
                           /*drop_prob=*/0.02, /*spike_prob=*/0.05,
                           /*spike_mult=*/2.0);
    WarmUpProbe();
  }

  PassResult Pass(Ctx& ctx) override {
    acc_ = Acc{};
    out_ = PassResult{};
    Fig8(ctx);
    SmallRows(ctx);
    Ladder(ctx);
    Multinode(ctx);
    std::map<std::string, double>& l = out_.layer;
    l["sim.events"] = static_cast<double>(acc_.events);
    l["sim.run_s"] = acc_.run_s;
    l["sim.events_per_s"] = static_cast<double>(acc_.events) / acc_.run_s;
    l["net.bytes"] = static_cast<double>(acc_.bytes);
    l["runtime.world_s"] = acc_.world_s;
    l["builder.kernel_s"] = acc_.kernel_s;
    return std::move(out_);
  }

 private:
  static constexpr int64_t kSmallM = 1024;
  static constexpr int kSmallExperts = 8;
  static constexpr int kSmallTopk = 2;

  struct Acc {
    uint64_t events = 0;  // RunSpmd events
    uint64_t bytes = 0;   // bytes moved on every fabric and storm network
    double run_s = 0;     // inside RunSpmd
    double world_s = 0;   // World construction, small-shape rows
    double kernel_s = 0;  // kernel construction, small-shape rows
  };

  // One op: build a World, construct the kernel with `make`, RunSpmd. With
  // spans enabled and a `profile` key, the simulator's TraceRecorder rides
  // along and BuildProfile's overlap numbers land as profile.<key>.*.
  template <class Make>
  sim::TimeNs Simulate(Ctx& ctx, const std::string& name,
                       const sim::MachineSpec& spec, bool small_row,
                       const std::string& profile, Make make) {
    sim::TimeNs makespan = 0;
    ctx.Op("kernels.simulate", name, [&] {
      sim::TraceRecorder rec;  // outlives the World that points at it
      Spans::Scope world_span(ctx.spans, "runtime.world", name);
      auto world = std::make_unique<rt::World>(spec, rt::ExecMode::kTimingOnly);
      const double world_s = world_span.Stop();
      const bool profiled = ctx.spans->enabled() && !profile.empty();
      if (profiled) world->set_trace(&rec, /*pid_base=*/0, name);
      Spans::Scope kernel_span(ctx.spans, "builder.kernel", name);
      auto kernel = make(*world);
      const double kernel_s = kernel_span.Stop();
      Spans::Scope run_span(ctx.spans, "sim.run", name);
      makespan = world->RunSpmd(
          [&](rt::RankCtx& c) -> sim::Coro { co_await kernel->Run(c); });
      acc_.run_s += run_span.Stop();
      acc_.events += world->sim().processed_events();
      acc_.bytes += world->intra_fabric().total_bytes() +
                    world->inter_fabric().total_bytes();
      if (small_row) {
        acc_.world_s += world_s;
        acc_.kernel_s += kernel_s;
      }
      out_.answers.push_back(static_cast<double>(makespan));
      if (!profiled) return makespan > 0;
      Spans::Scope prof_span(ctx.spans, "sim.profile", name);
      const sim::Profile p = sim::BuildProfile(rec);
      const std::string key = "profile." + profile + ".";
      out_.layer[key + "exposed_comm_frac"] = p.exposed_comm_frac;
      out_.layer[key + "compute_util"] = p.compute_util;
      out_.layer[key + "wire_util"] = p.wire_util;
      out_.layer[key + "critical_path_frac"] =
          static_cast<double>(p.critical_path) /
          static_cast<double>(p.makespan);
      return makespan > 0 && p.Consistent();
    });
    return makespan;
  }

  void Fig8(Ctx& ctx) {
    const sim::MachineSpec spec = sim::MachineSpec::H800x8();
    const int R = spec.num_devices;
    // Per-shape speedups over cuBLAS+NCCL: [AG, RS, MLP][FLUX, TileLink].
    std::vector<double> ratio[3][2];
    for (const MlpShape& s : kTable4Mlp) {
      const bool first = &s == &kTable4Mlp[0];
      const std::string row = s.name;
      const int64_t n1 = s.i / R;
      const baselines::MlpPartConfig ag_part{s.s, s.h, n1, CoarseTiling(s.h)};
      const baselines::FluxConfig ag_flux{s.s, s.h, n1, CoarseTiling(s.h)};
      tl::AgGemmConfig ag_tl;
      ag_tl.m = s.s;
      ag_tl.k = s.h;
      ag_tl.n = n1;
      ag_tl.gemm = CoarseTiling(s.h);
      ag_tl.comm_tile_m = 128;
      ag_tl.channels_per_rank = 4;
      ag_tl.comm = tl::CommResource::kDma;
      const double ag[4] = {
          Time(Simulate(ctx, "fig8.ag.cublas." + row, spec, false, "",
                        [&](rt::World& w) {
                          return std::make_unique<baselines::NonOverlapAgGemm>(
                              w, ag_part);
                        })),
          Time(Simulate(ctx, "fig8.ag.asynctp." + row, spec, false, "",
                        [&](rt::World& w) {
                          return std::make_unique<baselines::DecomposeAgGemm>(
                              w, ag_part);
                        })),
          Time(Simulate(ctx, "fig8.ag.flux." + row, spec, false, "",
                        [&](rt::World& w) {
                          return std::make_unique<baselines::FluxAgGemm>(
                              w, ag_flux);
                        })),
          Time(Simulate(ctx, "fig8.ag.tilelink." + row, spec, false,
                        first ? "ag_gemm" : "",
                        [&](rt::World& w) {
                          return std::make_unique<tl::AgGemm>(w, ag_tl);
                        })),
      };

      const baselines::MlpPartConfig rs_part{s.s, n1, s.h, CoarseTiling(n1)};
      const baselines::FluxConfig rs_flux{s.s, n1, s.h, CoarseTiling(n1)};
      tl::GemmRsConfig rs_tl;
      rs_tl.m = s.s;
      rs_tl.k = n1;
      rs_tl.n = s.h;
      rs_tl.gemm = CoarseTiling(n1);
      rs_tl.rs_block_m = RsBlock(s.s / R, rs_tl.gemm.bm);
      rs_tl.dma_push = true;
      const double rs[4] = {
          Time(Simulate(ctx, "fig8.rs.cublas." + row, spec, false, "",
                        [&](rt::World& w) {
                          return std::make_unique<baselines::NonOverlapGemmRs>(
                              w, rs_part);
                        })),
          Time(Simulate(ctx, "fig8.rs.asynctp." + row, spec, false, "",
                        [&](rt::World& w) {
                          return std::make_unique<baselines::DecomposeGemmRs>(
                              w, rs_part);
                        })),
          Time(Simulate(ctx, "fig8.rs.flux." + row, spec, false, "",
                        [&](rt::World& w) {
                          return std::make_unique<baselines::FluxGemmRs>(
                              w, rs_flux);
                        })),
          Time(Simulate(ctx, "fig8.rs.tilelink." + row, spec, false,
                        first ? "gemm_rs" : "",
                        [&](rt::World& w) {
                          return std::make_unique<tl::GemmRs>(w, rs_tl);
                        })),
      };

      // Full MLP = AG+GEMM + activation + GEMM+RS (bench_fig8_mlp's sum).
      const sim::CostModel cost(spec);
      const double act = Time(
          cost.MemoryBound(3ULL * static_cast<uint64_t>(s.s) * (s.i / R) * 2,
                           spec.sms_per_device) +
          spec.kernel_launch_latency);
      for (int m = 0; m < 2; ++m) {
        const int col = m == 0 ? 2 : 3;  // FLUX, TileLink
        ratio[0][m].push_back(ag[0] / ag[col]);
        ratio[1][m].push_back(rs[0] / rs[col]);
        ratio[2][m].push_back((ag[0] + act + rs[0]) /
                              (ag[col] + act + rs[col]));
      }
    }
    const double paper[3][2] = {{kPaperAgFlux, kPaperAgTileLink},
                                {kPaperRsFlux, kPaperRsTileLink},
                                {kPaperMlpFlux, kPaperMlpTileLink}};
    double err = 0;
    for (int part = 0; part < 3; ++part) {
      for (int m = 0; m < 2; ++m) {
        err += std::fabs(std::log(Geomean(ratio[part][m]) / paper[part][m]));
      }
    }
    out_.layer["paper_err"] = err / 6;
  }

  void SmallRows(Ctx& ctx) {
    const sim::MachineSpec x8 = sim::MachineSpec::H800x8();
    const sim::MachineSpec x16 = sim::MachineSpec::H800x16();
    tl::AgGemmConfig ag;
    ag.m = kSmallM;
    ag.k = 512;
    ag.n = 256;
    ag.gemm = CoarseTiling(ag.k);
    tl::GemmRsConfig rs;
    rs.m = kSmallM;
    rs.k = 256;
    rs.n = 512;
    rs.gemm = CoarseTiling(rs.k);
    rs.rs_block_m = 128;
    rs.dma_push = true;
    tl::AgMoeConfig moe1;
    moe1.m = kSmallM;
    moe1.hidden = 512;
    moe1.n = 256;
    moe1.num_experts = kSmallExperts;
    moe1.topk = kSmallTopk;
    moe1.gemm = CoarseTiling(moe1.hidden, 128, 128);
    moe1.channels_per_rank = 1;
    moe1.comm = tl::CommResource::kSmPull;
    tl::MoeRsConfig moe2;
    moe2.m = kSmallM;
    moe2.k = 256;
    moe2.hidden = 512;
    moe2.num_experts = kSmallExperts;
    moe2.topk = kSmallTopk;
    moe2.gemm = CoarseTiling(moe2.k, 128, 128);
    tl::AgAttentionConfig attn;
    attn.batch_heads = 8;
    attn.seq = 8192;
    attn.head_dim = 128;
    attn.block_kv = 1024;
    tl::GemmHierRsConfig hrs;
    hrs.m = 16 * 256;
    hrs.k = 256;
    hrs.n = 512;
    hrs.gemm = CoarseTiling(hrs.k);
    hrs.rs_block_m = 128;
    tl::AgGemmHierConfig agh;
    agh.m = 16 * 256;
    agh.k = 512;
    agh.n = 256;
    agh.gemm = CoarseTiling(agh.k);
    agh.comm_tile_m = 128;

    auto rows = [&](const std::string& name, const sim::MachineSpec& spec,
                    auto make) {
      sim::TimeNs first = 0;
      for (int rep = 0; rep < kSmallReps; ++rep) {
        const sim::TimeNs t =
            Simulate(ctx, "small." + name, spec, /*small_row=*/true, "", make);
        if (rep == 0) first = t;
        ctx.Check(t == first, "small." + name + " makespan repeats");
      }
    };
    rows("ag_gemm", x8, [&](rt::World& w) {
      return std::make_unique<tl::AgGemm>(w, ag);
    });
    rows("gemm_rs", x8, [&](rt::World& w) {
      return std::make_unique<tl::GemmRs>(w, rs);
    });
    rows("ag_moe", x8, [&](rt::World& w) {
      return std::make_unique<tl::AgMoe>(w, moe1, routing_);
    });
    rows("moe_rs", x8, [&](rt::World& w) {
      return std::make_unique<tl::MoeRs>(w, moe2, routing_);
    });
    rows("ag_attention", x8, [&](rt::World& w) {
      return std::make_unique<tl::AgAttention>(w, attn);
    });
    rows("gemm_hier_rs", x16, [&](rt::World& w) {
      return std::make_unique<tl::GemmHierRs>(w, hrs);
    });
    rows("ag_gemm_hier", x16, [&](rt::World& w) {
      return std::make_unique<tl::AgGemmHier>(w, agh);
    });
  }

  // The stack-layer ladder below the interpreter: the bare event loop, then
  // the flow network alone (flow i from port i % 8 to (i + 1) % 8).
  void Ladder(Ctx& ctx) {
    uint64_t events = 0;
    ctx.Op("sim.loop", "sim.loop", [&] {
      sim::Simulator s;
      s.Spawn(Ping(kLoopEvents));
      s.Run();
      events = s.processed_events();
      return events >= static_cast<uint64_t>(kLoopEvents);
    });
    out_.layer["sim.loop_events_per_s"] =
        static_cast<double>(events) / (ctx.op_ms.back() / 1e3);
    for (const int flows : kStormFlows) {
      const std::string name = "net.storm_" + std::to_string(flows);
      ctx.Op("net.storm", name, [&] {
        sim::Simulator s;
        sim::Network net(&s, 8, 150.0, 2200, "nvl");
        for (int i = 0; i < flows; ++i) {
          s.Spawn(OneFlow(&net, i % 8, (i + 1) % 8));
        }
        s.Run();
        events = s.processed_events();
        acc_.bytes += net.total_bytes();
        out_.answers.push_back(static_cast<double>(s.Now()));
        out_.answers.push_back(static_cast<double>(events));
        // Conservation: every flow delivered exactly its bytes.
        return net.total_bytes() == static_cast<uint64_t>(flows) * kFlowBytes;
      });
      out_.layer[name + "_s"] = ctx.op_ms.back() / 1e3;
    }
    out_.layer["net.events_per_flow"] =
        static_cast<double>(events) / kStormFlows[2];
  }

  void Multinode(Ctx& ctx) {
    const sim::MachineSpec x16 = sim::MachineSpec::H800x16();
    // Paper-scale fused kernels: the out-proj row-parallel and QKV
    // column-parallel shapes of a TP16 layer (bench_multinode_fabric's
    // out_proj_4k and qkv_4k), coarse k-tiling.
    tl::GemmHierRsConfig hrs;
    hrs.m = 16384;
    hrs.k = 256;
    hrs.n = 4096;
    hrs.gemm = CoarseTiling(hrs.k);
    hrs.rs_block_m = 128;
    tl::AgGemmHierConfig agh;
    agh.m = 16384;
    agh.k = 4096;
    agh.n = 768;
    agh.gemm = CoarseTiling(agh.k);
    agh.comm_tile_m = 128;
    Simulate(ctx, "x16.gemm_hier_rs", x16, false, "gemm_hier_rs",
             [&](rt::World& w) {
               return std::make_unique<tl::GemmHierRs>(w, hrs);
             });
    Simulate(ctx, "x16.ag_gemm_hier", x16, false, "ag_gemm_hier",
             [&](rt::World& w) {
               return std::make_unique<tl::AgGemmHier>(w, agh);
             });

    double run_s = 0;
    double retries = 0;
    double violations = 0;
    auto validate = [&](const std::string& name, auto call) {
      ctx.Op("multinode.validate", name, [&] {
        const multinode::PayloadReport r = call();
        retries += static_cast<double>(r.faults.retries);
        violations += static_cast<double>(r.violations);
        out_.answers.push_back(static_cast<double>(r.makespan));
        return r.ok();
      });
      run_s += ctx.op_ms.back() / 1e3;
    };
    const multinode::HierConfig coll;
    const sim::FaultPlan* plan = &plan_;
    validate("validate.hier_ag", [&] {
      return multinode::ValidateHierAllGather(x16, kCollTiles, kCollTileBytes,
                                              kCollTileElems, coll);
    });
    validate("validate.hier_rs", [&] {
      return multinode::ValidateHierReduceScatter(
          x16, kCollTiles, kCollTileBytes, kCollTileElems, coll);
    });
    validate("validate.gemm_hier_rs", [&] {
      return multinode::ValidateGemmHierRs(x16, SmallGemmHierRs(x16));
    });
    validate("validate.ag_gemm_hier", [&] {
      return multinode::ValidateAgGemmHier(x16, SmallAgGemmHier(x16));
    });
    validate("faulted.hier_rs", [&] {
      return multinode::ValidateHierReduceScatter(
          fault_spec_, kCollTiles, kCollTileBytes, kCollTileElems, coll, plan);
    });
    validate("faulted.gemm_hier_rs", [&] {
      return multinode::ValidateGemmHierRs(fault_spec_,
                                           SmallGemmHierRs(fault_spec_), plan);
    });
    validate("faulted.ag_gemm_hier", [&] {
      return multinode::ValidateAgGemmHier(fault_spec_,
                                           SmallAgGemmHier(fault_spec_), plan);
    });
    out_.layer["multinode.run_s"] = run_s;
    out_.layer["multinode.fault_retries"] = retries;
    out_.layer["multinode.checker_violations"] = violations;
  }

  static double Time(sim::TimeNs t) { return static_cast<double>(t); }

  uint64_t seed_;
  compute::MoeRouting routing_;
  sim::MachineSpec fault_spec_;
  sim::FaultPlan plan_;
  Acc acc_;
  PassResult out_;
};

}  // namespace

void WarmUpProbe() {
  rt::World world(sim::MachineSpec::H800x8(), rt::ExecMode::kTimingOnly);
  tl::AgGemmConfig cfg;  // MLP-1's AG+GEMM, as bench_micro_sim simulates it
  cfg.m = 8192;
  cfg.k = 4096;
  cfg.n = 11008 / 8;
  cfg.gemm = CoarseTiling(cfg.k);
  cfg.channels_per_rank = 4;
  tl::AgGemm kernel(world, cfg);
  world.RunSpmd(
      [&](rt::RankCtx& c) -> sim::Coro { co_await kernel.Run(c); });
}

std::unique_ptr<Workload> MakeKernels(const Options& opts) {
  return std::make_unique<Kernels>(opts);
}

}  // namespace perfbench
