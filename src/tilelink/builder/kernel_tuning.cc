#include "tilelink/builder/kernel_tuning.h"

#include <algorithm>
#include <limits>

#include "common/math_utils.h"
#include "common/rng.h"
#include "compute/flash_attention.h"
#include "runtime/world.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/mapping.h"

namespace tilelink::tl {
namespace {

// Blocks the planner grants a comm role asking for `want` SMs over
// `work_items` items: the claim itself, made on a throwaway budget.
int ClaimedCommSms(const sim::MachineSpec& spec, int want,
                   int64_t work_items) {
  return ResourceBudget::ForDevice(spec).ClaimComm(want, work_items);
}

// True when comm roles claiming `claimed` SMs in total leave the compute
// role none: its blocks then wait for SMs that the comm blocks, spinning on
// tiles the compute role has yet to produce, never release (a deadlock, not
// a slow kernel).
bool StarvesCompute(const sim::MachineSpec& spec, int claimed) {
  return claimed >= spec.sms_per_device;
}

// Mirrors the StaticMapping constructor checks so evaluators reject a
// candidate instead of tripping a TL_CHECK inside the kernel.
bool MappingFeasible(int64_t m, int ranks, int tile_m, int requested_cpr) {
  if (tile_m <= 0 || m <= 0 || m % ranks != 0) return false;
  const int cpr =
      StaticMapping::ResolveChannelsPerRank(m, tile_m, ranks, requested_cpr);
  if (cpr <= 0) return false;
  const int64_t m_per_rank = CeilDiv<int64_t>(m, ranks);
  const int64_t m_per_channel =
      CeilDiv<int64_t>(m, static_cast<int64_t>(ranks) * cpr);
  return m_per_rank % tile_m == 0 && m_per_channel % tile_m == 0;
}

bool AgGemmFeasible(const sim::MachineSpec& spec, const MlpPartShape& s,
                    const TuneCandidate& c) {
  return MappingFeasible(s.m, spec.num_devices, c.comm_tile_m,
                         c.channels_per_rank);
}

bool AgMoeFeasible(const sim::MachineSpec& spec, const MoeShape& s,
                   const TuneCandidate& c) {
  return s.topk > 0 && MappingFeasible(s.m, spec.num_devices, c.comm_tile_m,
                                       c.channels_per_rank);
}

bool MoeRsFeasible(const sim::MachineSpec& spec, const MoeShape& s,
                   const TuneCandidate& c) {
  // Like GEMM+RS, the RS role is push-only (SM push or DMA push).
  if (c.comm == CommResource::kSmPull) return false;
  const int R = spec.num_devices;
  if (s.m % R != 0 || c.comm_tile_m <= 0 || c.reduce_block_tokens <= 0 ||
      c.sorted_channel_rows <= 0) {
    return false;
  }
  const int64_t m_per_rank = s.m / R;
  if (m_per_rank % c.comm_tile_m != 0 ||
      c.comm_tile_m % c.reduce_block_tokens != 0) {
    return false;
  }
  // The ring and topk-reduce roles claim their SMs in every binding.
  return !StarvesCompute(
      spec, ClaimedCommSms(spec, c.comm_sms, m_per_rank / c.comm_tile_m) +
                ClaimedCommSms(spec, c.reduce_sms,
                               s.m / c.reduce_block_tokens));
}

}  // namespace

bool GemmRsFeasible(const sim::MachineSpec& spec, const MlpPartShape& s,
                    const TuneCandidate& c) {
  // The RS role has no pull mode: a chunk is reduced where it was produced
  // and pushed around the ring (SM-driven or handed to a copy engine).
  if (c.comm == CommResource::kSmPull) return false;
  const int R = spec.num_devices;
  // Rail peers are (node, local) pairs: ragged nodes are not modeled.
  if (R % spec.devices_per_node != 0 || s.m % R != 0) return false;
  const int64_t m_per_rank = s.m / R;
  if (c.comm_tile_m <= 0 || m_per_rank % c.comm_tile_m != 0 ||
      c.comm_tile_m % c.gemm.bm != 0) {
    return false;
  }
  if (spec.num_nodes() == 1) {
    // The ring role alone: its canonical claim (see CanonicalGemmRs).
    return !StarvesCompute(
        spec, ClaimedCommSms(spec, c.comm_sms, m_per_rank / c.comm_tile_m));
  }
  // Across nodes the ring's work depends on the planner's column split and
  // the rail roles claim SMs too: read every comm grant off the plan.
  const OverlapPlan plan = OverlapPlanner(spec).Plan(
      GemmRsOverlapSpec(spec, MakeGemmRsConfig(s, c)));
  int claimed = 0;
  for (const PlannedRole& r : plan.roles) {
    if (r.kind != OverlapRoleKind::kCompute) claimed += r.blocks;
  }
  return !StarvesCompute(spec, claimed);
}

AgGemmConfig MakeAgGemmConfig(const MlpPartShape& shape,
                              const TuneCandidate& c) {
  AgGemmConfig cfg;
  cfg.m = shape.m;
  cfg.k = shape.k;
  cfg.n = shape.n;
  cfg.gemm = c.gemm;
  cfg.comm_tile_m = c.comm_tile_m;
  cfg.channels_per_rank = c.channels_per_rank;
  cfg.comm = c.comm;
  cfg.comm_sms = c.comm_sms;
  cfg.order = c.order;
  return cfg;
}

GemmRsConfig MakeGemmRsConfig(const MlpPartShape& shape,
                              const TuneCandidate& c) {
  GemmRsConfig cfg;
  cfg.m = shape.m;
  cfg.k = shape.k;
  cfg.n = shape.n;
  cfg.gemm = c.gemm;
  cfg.rs_block_m = c.comm_tile_m;
  cfg.nic_chunk_blocks = std::max(1, c.nic_chunk_tiles);
  cfg.staging_depth = std::max(1, c.staging_depth);
  cfg.comm_sms = c.comm_sms;
  cfg.reduce_sms = std::max(1, c.reduce_sms);
  cfg.dma_push = c.comm == CommResource::kDma;
  cfg.order = c.order;
  return cfg;
}

AgMoeConfig MakeAgMoeConfig(const MoeShape& shape, const TuneCandidate& c) {
  AgMoeConfig cfg;
  cfg.m = shape.m;
  cfg.hidden = shape.hidden;
  cfg.n = shape.inner;
  cfg.num_experts = shape.num_experts;
  cfg.topk = shape.topk;
  cfg.gemm = c.gemm;
  cfg.comm_tile_m = c.comm_tile_m;
  cfg.channels_per_rank = c.channels_per_rank;
  cfg.comm = c.comm;
  cfg.comm_sms = c.comm_sms;
  return cfg;
}

MoeRsConfig MakeMoeRsConfig(const MoeShape& shape, const TuneCandidate& c) {
  MoeRsConfig cfg;
  cfg.m = shape.m;
  cfg.k = shape.inner;
  cfg.hidden = shape.hidden;
  cfg.num_experts = shape.num_experts;
  cfg.topk = shape.topk;
  cfg.gemm = c.gemm;
  cfg.sorted_channel_rows = c.sorted_channel_rows;
  cfg.reduce_block_tokens = c.reduce_block_tokens;
  cfg.reduce_sms = c.reduce_sms;
  cfg.rs_block_m = c.comm_tile_m;
  cfg.comm_sms = c.comm_sms;
  cfg.dma_push = c.comm == CommResource::kDma;
  return cfg;
}

TuneCandidate CoarsenReduction(const TuneCandidate& c, int64_t k) {
  TuneCandidate coarse = c;
  coarse.gemm.bk = static_cast<int>(
      std::min<int64_t>(std::max<int64_t>(k, 1),
                        std::numeric_limits<int>::max()));
  return coarse;
}

int RsBlockRows(int64_t m_per_rank, int bm) {
  if (bm <= 0 || m_per_rank % bm != 0) return std::max(bm, 1);
  int64_t chunk = m_per_rank / 8;
  chunk = std::max<int64_t>(bm, chunk - chunk % bm);
  while (m_per_rank % chunk != 0) chunk -= bm;
  return static_cast<int>(std::max<int64_t>(bm, chunk));
}

// ---- Full-fidelity evaluators -------------------------------------------

sim::TimeNs SimulateAgGemm(const sim::MachineSpec& spec,
                           const MlpPartShape& shape, const TuneCandidate& c) {
  if (!AgGemmFeasible(spec, shape, c)) return Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  AgGemm kernel(world, MakeAgGemmConfig(shape, c));
  return world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
}

sim::TimeNs SimulateGemmRs(const sim::MachineSpec& spec,
                           const MlpPartShape& shape, const TuneCandidate& c) {
  if (!GemmRsFeasible(spec, shape, c)) return Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  GemmRs kernel(world, MakeGemmRsConfig(shape, c));
  return world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
}

sim::TimeNs SimulateFlashCore(const sim::MachineSpec& spec,
                              const FlashShape& shape,
                              const TuneCandidate& c) {
  if (shape.seq_q <= 0 || shape.seq_kv <= 0 || c.block_q <= 0 ||
      c.block_kv <= 0) {
    return Autotuner::kInfeasible;
  }
  // The flash core has no communication: every rank would simulate the same
  // local kernel, so run one device only (identical makespan, 1/R events).
  sim::MachineSpec one = spec;
  one.num_devices = 1;
  one.devices_per_node = 1;
  rt::World world(one, rt::ExecMode::kTimingOnly);
  Tensor q = Tensor::Alloc(world.device(0), "q",
                           {shape.batch_heads, shape.seq_q, shape.head_dim},
                           DType::kBF16);
  Tensor k = Tensor::Alloc(world.device(0), "k",
                           {shape.batch_heads, shape.seq_kv, shape.head_dim},
                           DType::kBF16);
  Tensor v = Tensor::Alloc(world.device(0), "v",
                           {shape.batch_heads, shape.seq_kv, shape.head_dim},
                           DType::kBF16);
  Tensor o = Tensor::Alloc(world.device(0), "o",
                           {shape.batch_heads, shape.seq_q, shape.head_dim},
                           DType::kBF16);
  return world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
    compute::FlashOptions opt;
    opt.block_q = c.block_q;
    opt.block_kv = c.block_kv;
    compute::LaunchFlashAttention(ctx, *ctx.stream, q, k, v, o, opt);
    co_await ctx.stream->Synchronize();
  });
}

sim::TimeNs SimulateAgMoe(const sim::MachineSpec& spec, const MoeShape& shape,
                          const compute::MoeRouting& routing,
                          const TuneCandidate& c) {
  if (!AgMoeFeasible(spec, shape, c)) return Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  AgMoe kernel(world, MakeAgMoeConfig(shape, c), routing);
  return world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
}

sim::TimeNs SimulateMoeRs(const sim::MachineSpec& spec, const MoeShape& shape,
                          const compute::MoeRouting& routing,
                          const TuneCandidate& c) {
  if (!MoeRsFeasible(spec, shape, c)) return Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  MoeRs kernel(world, MakeMoeRsConfig(shape, c), routing);
  return world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
}

sim::TimeNs SimulateMoeLayer(const sim::MachineSpec& spec,
                             const MoeShape& shape,
                             const compute::MoeRouting& routing,
                             const TuneCandidate& part1,
                             const TuneCandidate& part2) {
  if (!AgMoeFeasible(spec, shape, part1) ||
      !MoeRsFeasible(spec, shape, part2)) {
    return Autotuner::kInfeasible;
  }
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  AgMoe p1(world, MakeAgMoeConfig(shape, part1), routing);
  MoeRs p2(world, MakeMoeRsConfig(shape, part2), routing);
  return world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
    co_await p1.Run(ctx);
    co_await p2.Run(ctx);
  });
}

// ---- Coarse shapes --------------------------------------------------------

namespace {

// Shrinks a sequence extent for the coarse round: a quarter of the full
// extent, kept divisible by `granularity` (ranks and the largest block
// size), never below one granule.
int64_t CoarseSeq(int64_t seq, int64_t granularity) {
  const int64_t target = seq / 4;
  const int64_t granules = target / granularity;
  if (granules < 1) return seq;
  return granules * granularity;
}

// Token-linear compute, comm and reduce events all shrink with the coarse
// MoE round's token count, so the candidate ranking is preserved at ~4x
// fewer events (on top of the collapsed reduction loop).
constexpr int64_t kMoeCoarseGranule = 1024;
constexpr uint64_t kMoeCoarseRoutingSeed = 1234;

// The coarse MoE round: a quarter of the token count (kept divisible by
// every chunking knob the spaces expose) with a fresh deterministic routing
// of the same distribution, or the shape and routing themselves when the
// shape is too small to shrink (a copy, made once per search). TuneAgMoe/
// TuneMoeRs build it once per search; every candidate's coarse round
// simulates it with the reduction loop collapsed (CoarsenReduction).
struct CoarseMoe {
  MoeShape shape;
  compute::MoeRouting routing;
};
CoarseMoe CoarsenMoe(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing) {
  const int64_t granule = kMoeCoarseGranule * spec.num_devices;
  const int64_t granules = shape.m / 4 / granule;
  if (granules < 1) return CoarseMoe{shape, routing};
  MoeShape coarse = shape;
  coarse.m = granules * granule;
  Rng rng(kMoeCoarseRoutingSeed);
  return CoarseMoe{coarse, compute::RandomRouting(coarse.m, shape.num_experts,
                                                  shape.topk, rng)};
}

}  // namespace

// ---- Planner-canonical candidates ---------------------------------------

namespace {

// Row-AllGather comm role over m gathered rows: the SM pull role gathers
// every tile, the SM push role sends this rank's tiles, a DMA role claims
// no SMs; the channel count is what StaticMapping resolves.
TuneCandidate CanonicalRowAllGather(const sim::MachineSpec& spec, int64_t m,
                                    const TuneCandidate& c) {
  const int R = spec.num_devices;
  TuneCandidate k = c;
  k.channels_per_rank = StaticMapping::ResolveChannelsPerRank(
      m, c.comm_tile_m, R, c.channels_per_rank);
  if (c.comm == CommResource::kDma) {
    k.comm_sms = 0;
  } else {
    const int64_t work = c.comm == CommResource::kSmPush
                             ? m / R / c.comm_tile_m
                             : m / c.comm_tile_m;
    k.comm_sms = ClaimedCommSms(spec, c.comm_sms, work);
  }
  return k;
}

}  // namespace

TuneCandidate CanonicalAgGemm(const sim::MachineSpec& spec,
                              const MlpPartShape& shape,
                              const TuneCandidate& c) {
  if (!AgGemmFeasible(spec, shape, c)) return c;
  return CanonicalRowAllGather(spec, shape.m, c);
}

TuneCandidate CanonicalGemmRs(const sim::MachineSpec& spec,
                              const MlpPartShape& shape,
                              const TuneCandidate& c) {
  if (!GemmRsFeasible(spec, shape, c)) return c;
  // The ring-RS role claims its SM blocks even in DMA mode (hybrid
  // mapping: reduction on SMs, only the scatter moves to copy engines).
  TuneCandidate k = c;
  k.comm_sms = ClaimedCommSms(spec, c.comm_sms,
                              shape.m / spec.num_devices / c.comm_tile_m);
  return k;
}

TuneCandidate CanonicalAgMoe(const sim::MachineSpec& spec,
                             const MoeShape& shape, const TuneCandidate& c) {
  if (!AgMoeFeasible(spec, shape, c)) return c;
  // AgMoe always builds the pull AllGather for an SM binding.
  TuneCandidate pull = c;
  if (pull.comm == CommResource::kSmPush) pull.comm = CommResource::kSmPull;
  return CanonicalRowAllGather(spec, shape.m, pull);
}

TuneCandidate CanonicalMoeRs(const sim::MachineSpec& spec,
                             const MoeShape& shape, const TuneCandidate& c) {
  if (!MoeRsFeasible(spec, shape, c)) return c;
  // Both comm roles keep their SM claims in DMA mode (the ring reduction
  // and topk-reduce run on SMs; DMA only moves the scatter).
  TuneCandidate k = c;
  k.comm_sms = ClaimedCommSms(spec, c.comm_sms,
                              shape.m / spec.num_devices / c.comm_tile_m);
  k.reduce_sms =
      ClaimedCommSms(spec, c.reduce_sms, shape.m / c.reduce_block_tokens);
  return k;
}

// ---- Analytic lower bounds ----------------------------------------------

sim::TimeNs AgGemmLowerBound(const sim::MachineSpec& spec,
                             const MlpPartShape& shape,
                             const TuneCandidate& c) {
  if (!AgGemmFeasible(spec, shape, c)) return 0;  // never prune; eval rejects
  const sim::CostModel cost(spec);
  // The SMs the planner grants the comm role (the canonical claim):
  // overstating it would overstate the bound and could prune the argmin.
  const int compute_sms = std::max(
      1, spec.sms_per_device - CanonicalAgGemm(spec, shape, c).comm_sms);
  const sim::TimeNs compute =
      cost.GemmComputeTime(shape.m, shape.n, shape.k, c.gemm.bm, c.gemm.bn,
                           c.gemm.bk, compute_sms);
  // Each rank must receive (R-1)/R of the gathered activation over the wire.
  const int R = spec.num_devices;
  const uint64_t bytes =
      static_cast<uint64_t>(shape.m / R * (R - 1)) * shape.k * 2;
  // Overlap-aware: compute and communication proceed concurrently, so the
  // fused kernel can never beat the larger of the two. The launch latency
  // delays the device kernel (compute side) but not host-driven copies.
  return std::max<sim::TimeNs>(compute + spec.kernel_launch_latency,
                               cost.NvlinkTransfer(bytes));
}

sim::TimeNs GemmRsLowerBound(const sim::MachineSpec& spec,
                             const MlpPartShape& shape,
                             const TuneCandidate& c) {
  if (!GemmRsFeasible(spec, shape, c)) return 0;
  const sim::CostModel cost(spec);
  // Unlike the AG kernels, the ring-RS role claims its SM blocks in every
  // resource binding (see CanonicalGemmRs).
  const int compute_sms = std::max(
      1, spec.sms_per_device - CanonicalGemmRs(spec, shape, c).comm_sms);
  const sim::TimeNs compute =
      cost.GemmComputeTime(shape.m, shape.n, shape.k, c.gemm.bm, c.gemm.bn,
                           c.gemm.bk, compute_sms);
  // Ring RS: each rank forwards (R-1)/R of the partial-sum matrix.
  const int R = spec.num_devices;
  const uint64_t bytes =
      static_cast<uint64_t>(shape.m / R * (R - 1)) * shape.n * 2;
  return std::max<sim::TimeNs>(compute + spec.kernel_launch_latency,
                               cost.NvlinkTransfer(bytes));
}

sim::TimeNs FlashCoreLowerBound(const sim::MachineSpec& spec,
                                const FlashShape& shape,
                                const TuneCandidate& c) {
  if (shape.seq_q <= 0 || shape.seq_kv <= 0 || c.block_q <= 0 ||
      c.block_kv <= 0) {
    return 0;
  }
  const sim::CostModel cost(spec);
  const int64_t tiles =
      shape.batch_heads * CeilDiv<int64_t>(shape.seq_q, c.block_q);
  const int64_t waves = CeilDiv<int64_t>(tiles, spec.sms_per_device);
  const int64_t kv_steps = CeilDiv<int64_t>(shape.seq_kv, c.block_kv);
  return waves * kv_steps *
             cost.FlashAttnTileStep(c.block_q, c.block_kv,
                                    static_cast<int>(shape.head_dim)) +
         spec.kernel_launch_latency;
}

// ---- Pre-wired searches -------------------------------------------------

TuneResult TuneAgGemm(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner) {
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) { return SimulateAgGemm(spec, shape, c); },
      [&](const TuneCandidate& c) { return AgGemmLowerBound(spec, shape, c); },
      nullptr,
      [&](const TuneCandidate& c) { return CanonicalAgGemm(spec, shape, c); });
}

TuneResult TuneGemmRs(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner) {
  // The bound and the canonical claim model the one-node ring; a world
  // spanning nodes searches with multinode::TuneGemmHierRs.
  TL_CHECK_EQ(spec.num_nodes(), 1);
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) { return SimulateGemmRs(spec, shape, c); },
      [&](const TuneCandidate& c) { return GemmRsLowerBound(spec, shape, c); },
      nullptr,
      [&](const TuneCandidate& c) { return CanonicalGemmRs(spec, shape, c); });
}

TuneResult TuneFlashCore(const sim::MachineSpec& spec, const FlashShape& shape,
                         const TuningSpace& space, const TuneCandidate& base,
                         const Autotuner& tuner) {
  FlashShape coarse = shape;
  coarse.seq_q = CoarseSeq(shape.seq_q, 2048);
  coarse.seq_kv = CoarseSeq(shape.seq_kv, 2048);
  const bool can_coarsen =
      coarse.seq_q < shape.seq_q || coarse.seq_kv < shape.seq_kv;
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) { return SimulateFlashCore(spec, shape, c); },
      [&](const TuneCandidate& c) {
        return FlashCoreLowerBound(spec, shape, c);
      },
      can_coarsen ? Autotuner::EvalFn([&](const TuneCandidate& c) {
        return SimulateFlashCore(spec, coarse, c);
      })
                  : Autotuner::EvalFn());
}

TuneResult TuneAgMoe(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing,
                     const TuningSpace& space, const TuneCandidate& base,
                     const Autotuner& tuner) {
  const CoarseMoe coarse = CoarsenMoe(spec, shape, routing);
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) {
        return SimulateAgMoe(spec, shape, routing, c);
      },
      nullptr,
      [&](const TuneCandidate& c) {
        return SimulateAgMoe(spec, coarse.shape, coarse.routing,
                             CoarsenReduction(c, coarse.shape.hidden));
      },
      [&](const TuneCandidate& c) {
        // The coarse round simulates fewer tokens, where channels_per_rank
        // 0 resolves to fewer channels than at the full shape: a 0 merges
        // with an explicit count only when both shapes resolve it alike.
        TuneCandidate k = CanonicalAgMoe(spec, shape, c);
        if (CanonicalAgMoe(spec, coarse.shape, c).channels_per_rank !=
            k.channels_per_rank) {
          k.channels_per_rank = c.channels_per_rank;
        }
        return k;
      });
}

TuneResult TuneMoeRs(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing,
                     const TuningSpace& space, const TuneCandidate& base,
                     const Autotuner& tuner) {
  const CoarseMoe coarse = CoarsenMoe(spec, shape, routing);
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) {
        return SimulateMoeRs(spec, shape, routing, c);
      },
      nullptr,
      [&](const TuneCandidate& c) {
        return SimulateMoeRs(spec, coarse.shape, coarse.routing,
                             CoarsenReduction(c, coarse.shape.inner));
      },
      [&](const TuneCandidate& c) { return CanonicalMoeRs(spec, shape, c); });
}

}  // namespace tilelink::tl
