#include "tilelink/builder/kernel_tuning.h"

#include <algorithm>
#include <limits>

#include "common/math_utils.h"
#include "common/rng.h"
#include "compute/flash_attention.h"
#include "runtime/world.h"
#include "tilelink/builder/comm_bounds.h"
#include "tilelink/kernels/ag_attention.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/ag_moe.h"
#include "tilelink/kernels/gemm_rs.h"
#include "tilelink/kernels/moe_rs.h"
#include "tilelink/mapping.h"

namespace tilelink::tl {
namespace {

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

bool GemmRsFeasible(const sim::MachineSpec& spec, const MlpPartShape& s,
                    const TuneCandidate& c) {
  // The RS role has no pull mode: a chunk is reduced where it was produced
  // and pushed around the ring (SM-driven or handed to a copy engine).
  if (c.comm == CommResource::kSmPull) return false;
  const int R = spec.num_devices;
  if (s.m % R != 0) return false;
  const int64_t m_per_rank = s.m / R;
  return c.comm_tile_m > 0 && m_per_rank % c.comm_tile_m == 0 &&
         c.comm_tile_m % c.gemm.bm == 0;
}

bool AgAttentionFeasible(const sim::MachineSpec& spec, const AttnShape& s,
                         const TuneCandidate& c) {
  return s.seq > 0 && s.seq % spec.num_devices == 0 && c.block_q > 0 &&
         c.block_kv > 0;
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
  return m_per_rank % c.comm_tile_m == 0 &&
         c.comm_tile_m % c.reduce_block_tokens == 0;
}

// Collapses the reduction loop to a single k-step: per-tile MMA cost is
// linear in bk, so the makespan is nearly unchanged while the event count
// drops by ~k/bk.
TuneCandidate CoarsenReduction(const TuneCandidate& c, int64_t k) {
  TuneCandidate coarse = c;
  coarse.gemm.bk = static_cast<int>(
      std::min<int64_t>(std::max<int64_t>(k, 1),
                        std::numeric_limits<int>::max()));
  return coarse;
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
  cfg.comm_sms = c.comm_sms;
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

}  // namespace

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

sim::TimeNs SimulateAgAttention(const sim::MachineSpec& spec,
                                const AttnShape& shape,
                                const TuneCandidate& c) {
  if (!AgAttentionFeasible(spec, shape, c)) return Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  AgAttentionConfig cfg;
  cfg.batch_heads = shape.batch_heads;
  cfg.seq = shape.seq;
  cfg.head_dim = shape.head_dim;
  cfg.block_q = c.block_q;
  cfg.block_kv = c.block_kv;
  AgAttention kernel(world, cfg);
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

// ---- Coarse evaluators --------------------------------------------------

sim::TimeNs CoarseSimulateAgGemm(const sim::MachineSpec& spec,
                                 const MlpPartShape& shape,
                                 const TuneCandidate& c) {
  return SimulateAgGemm(spec, shape, CoarsenReduction(c, shape.k));
}

sim::TimeNs CoarseSimulateGemmRs(const sim::MachineSpec& spec,
                                 const MlpPartShape& shape,
                                 const TuneCandidate& c) {
  return SimulateGemmRs(spec, shape, CoarsenReduction(c, shape.k));
}

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

}  // namespace

sim::TimeNs CoarseSimulateAgAttention(const sim::MachineSpec& spec,
                                      const AttnShape& shape,
                                      const TuneCandidate& c) {
  AttnShape coarse = shape;
  coarse.seq = CoarseSeq(shape.seq, 2048L * spec.num_devices);
  return SimulateAgAttention(spec, coarse, c);
}

sim::TimeNs CoarseSimulateFlashCore(const sim::MachineSpec& spec,
                                    const FlashShape& shape,
                                    const TuneCandidate& c) {
  FlashShape coarse = shape;
  coarse.seq_q = CoarseSeq(shape.seq_q, 2048);
  coarse.seq_kv = CoarseSeq(shape.seq_kv, 2048);
  return SimulateFlashCore(spec, coarse, c);
}

namespace {

// Coarse MoE round: a quarter of the token count (kept divisible by every
// chunking knob the spaces expose) with a fresh deterministic routing of the
// same distribution. Token-linear compute, comm and reduce events all shrink
// together, so the candidate ranking is preserved at ~4x fewer events (on
// top of the collapsed reduction loop).
constexpr int64_t kMoeCoarseGranule = 1024;
constexpr uint64_t kMoeCoarseRoutingSeed = 1234;

MoeShape CoarseMoeShape(const sim::MachineSpec& spec, const MoeShape& shape) {
  MoeShape coarse = shape;
  const int64_t granule = kMoeCoarseGranule * spec.num_devices;
  const int64_t granules = shape.m / 4 / granule;
  if (granules >= 1) coarse.m = granules * granule;
  return coarse;
}

}  // namespace

sim::TimeNs CoarseSimulateAgMoe(const sim::MachineSpec& spec,
                                const MoeShape& shape,
                                const compute::MoeRouting& routing,
                                const TuneCandidate& c) {
  const MoeShape coarse = CoarseMoeShape(spec, shape);
  if (coarse.m == shape.m) {
    return SimulateAgMoe(spec, shape, routing,
                         CoarsenReduction(c, shape.hidden));
  }
  Rng rng(kMoeCoarseRoutingSeed);
  const compute::MoeRouting coarse_routing = compute::RandomRouting(
      coarse.m, shape.num_experts, shape.topk, rng);
  return SimulateAgMoe(spec, coarse, coarse_routing,
                       CoarsenReduction(c, shape.hidden));
}

sim::TimeNs CoarseSimulateMoeRs(const sim::MachineSpec& spec,
                                const MoeShape& shape,
                                const compute::MoeRouting& routing,
                                const TuneCandidate& c) {
  const MoeShape coarse = CoarseMoeShape(spec, shape);
  if (coarse.m == shape.m) {
    return SimulateMoeRs(spec, shape, routing,
                         CoarsenReduction(c, shape.inner));
  }
  Rng rng(kMoeCoarseRoutingSeed);
  const compute::MoeRouting coarse_routing = compute::RandomRouting(
      coarse.m, shape.num_experts, shape.topk, rng);
  return SimulateMoeRs(spec, coarse, coarse_routing,
                       CoarsenReduction(c, shape.inner));
}

// ---- Analytic lower bounds ----------------------------------------------

sim::TimeNs AgGemmOverlapBound(const sim::MachineSpec& spec,
                               const MlpPartShape& shape,
                               const TuneCandidate& c) {
  if (!AgGemmFeasible(spec, shape, c)) return 0;  // never prune; eval rejects
  const sim::CostModel cost(spec);
  // Mirror RolePlan's ClaimComm: comm blocks are capped by the role's work
  // (all tiles in pull mode, this rank's tiles in push mode). Overstating
  // the comm SM claim would overstate the bound and could prune the argmin.
  const int64_t comm_work = c.comm == CommResource::kSmPush
                                ? shape.m / spec.num_devices / c.comm_tile_m
                                : shape.m / c.comm_tile_m;
  const int comm_sms =
      c.comm == CommResource::kDma
          ? 0
          : static_cast<int>(std::min<int64_t>(c.comm_sms, comm_work));
  const int compute_sms = std::max(1, spec.sms_per_device - comm_sms);
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

sim::TimeNs AgGemmLowerBound(const sim::MachineSpec& spec,
                             const MlpPartShape& shape,
                             const TuneCandidate& c) {
  const sim::TimeNs overlap = AgGemmOverlapBound(spec, shape, c);
  if (overlap == 0) return 0;  // infeasible: never prune
  return std::max(overlap, AgGemmCommFloor(spec, shape, c));
}

sim::TimeNs GemmRsOverlapBound(const sim::MachineSpec& spec,
                               const MlpPartShape& shape,
                               const TuneCandidate& c) {
  if (!GemmRsFeasible(spec, shape, c)) return 0;
  const sim::CostModel cost(spec);
  const int64_t chunks = shape.m / spec.num_devices / c.comm_tile_m;
  // Unlike the AG kernels, the ring-RS role claims its SM blocks even in
  // DMA mode (hybrid mapping: reduction on SMs, only the scatter moves to
  // copy engines), so comm_sms is subtracted for every resource binding.
  const int comm_sms =
      static_cast<int>(std::min<int64_t>(c.comm_sms, chunks));
  const int compute_sms = std::max(1, spec.sms_per_device - comm_sms);
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

sim::TimeNs GemmRsLowerBound(const sim::MachineSpec& spec,
                             const MlpPartShape& shape,
                             const TuneCandidate& c) {
  const sim::TimeNs overlap = GemmRsOverlapBound(spec, shape, c);
  if (overlap == 0) return 0;
  return std::max(overlap, GemmRsCommFloor(spec, shape, c));
}

sim::TimeNs AgAttentionLowerBound(const sim::MachineSpec& spec,
                                  const AttnShape& shape,
                                  const TuneCandidate& c) {
  if (!AgAttentionFeasible(spec, shape, c)) return 0;
  const sim::CostModel cost(spec);
  const int R = spec.num_devices;
  const int64_t s_per = shape.seq / R;
  const int64_t q_tiles = CeilDiv<int64_t>(s_per, c.block_q);
  const int64_t tiles = shape.batch_heads * q_tiles;
  const int64_t waves = CeilDiv<int64_t>(tiles, spec.sms_per_device);
  const int64_t kv_steps =
      static_cast<int64_t>(R) * CeilDiv<int64_t>(s_per, c.block_kv);
  const sim::TimeNs compute =
      waves * kv_steps *
      cost.FlashAttnTileStep(c.block_q, c.block_kv,
                             static_cast<int>(shape.head_dim));
  // K and V shards from every remote rank land over the wire.
  const uint64_t bytes = 2ULL *
                         static_cast<uint64_t>(R - 1) * shape.batch_heads *
                         s_per * shape.head_dim * 2;
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

sim::TimeNs AgMoeLowerBound(const sim::MachineSpec& spec,
                            const MoeShape& shape, const TuneCandidate& c) {
  if (!AgMoeFeasible(spec, shape, c)) return 0;
  const sim::CostModel cost(spec);
  const int64_t comm_work = c.comm == CommResource::kSmPush
                                ? shape.m / spec.num_devices / c.comm_tile_m
                                : shape.m / c.comm_tile_m;
  const int comm_sms =
      c.comm == CommResource::kDma
          ? 0
          : static_cast<int>(std::min<int64_t>(c.comm_sms, comm_work));
  const int compute_sms = std::max(1, spec.sms_per_device - comm_sms);
  // Dense-GEMM time over the slot space is a lower bound on the group GEMM:
  // per-expert fragmentation only adds tiles.
  const sim::TimeNs compute = cost.GemmComputeTime(
      shape.m * shape.topk, shape.inner, shape.hidden, c.gemm.bm, c.gemm.bn,
      c.gemm.bk, compute_sms);
  const int R = spec.num_devices;
  const uint64_t bytes =
      static_cast<uint64_t>(shape.m / R * (R - 1)) * shape.hidden * 2;
  return std::max<sim::TimeNs>(compute + spec.kernel_launch_latency,
                               cost.NvlinkTransfer(bytes));
}

sim::TimeNs MoeRsLowerBound(const sim::MachineSpec& spec,
                            const MoeShape& shape, const TuneCandidate& c) {
  if (!MoeRsFeasible(spec, shape, c)) return 0;
  const sim::CostModel cost(spec);
  const int64_t rs_chunks = shape.m / spec.num_devices / c.comm_tile_m;
  const int64_t reduce_chunks = shape.m / c.reduce_block_tokens;
  // Both comm roles keep their SM claims in DMA mode (the ring reduction
  // and topk-reduce run on SMs; DMA only moves the scatter).
  const int claimed =
      static_cast<int>(std::min<int64_t>(c.comm_sms, rs_chunks)) +
      static_cast<int>(std::min<int64_t>(c.reduce_sms, reduce_chunks));
  const int compute_sms = std::max(1, spec.sms_per_device - claimed);
  const sim::TimeNs compute = cost.GemmComputeTime(
      shape.m * shape.topk, shape.hidden, shape.inner, c.gemm.bm, c.gemm.bn,
      c.gemm.bk, compute_sms);
  const int R = spec.num_devices;
  const uint64_t bytes =
      static_cast<uint64_t>(shape.m / R * (R - 1)) * shape.hidden * 2;
  return std::max<sim::TimeNs>(compute + spec.kernel_launch_latency,
                               cost.NvlinkTransfer(bytes));
}

// ---- Pre-wired searches -------------------------------------------------

TuneResult TuneAgGemm(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner) {
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) { return SimulateAgGemm(spec, shape, c); },
      [&](const TuneCandidate& c) { return AgGemmLowerBound(spec, shape, c); },
      [&](const TuneCandidate& c) {
        return CoarseSimulateAgGemm(spec, shape, c);
      });
}

TuneResult TuneGemmRs(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner) {
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) { return SimulateGemmRs(spec, shape, c); },
      [&](const TuneCandidate& c) { return GemmRsLowerBound(spec, shape, c); },
      [&](const TuneCandidate& c) {
        return CoarseSimulateGemmRs(spec, shape, c);
      });
}

TuneResult TuneAgAttention(const sim::MachineSpec& spec,
                           const AttnShape& shape, const TuningSpace& space,
                           const TuneCandidate& base, const Autotuner& tuner) {
  // When the sequence is too short to shrink, a "coarse" score would be a
  // full-fidelity run — halving would only double the work. Search plain.
  const bool can_coarsen =
      CoarseSeq(shape.seq, 2048L * spec.num_devices) < shape.seq;
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) {
        return SimulateAgAttention(spec, shape, c);
      },
      [&](const TuneCandidate& c) {
        return AgAttentionLowerBound(spec, shape, c);
      },
      can_coarsen ? Autotuner::EvalFn([&](const TuneCandidate& c) {
        return CoarseSimulateAgAttention(spec, shape, c);
      })
                  : Autotuner::EvalFn());
}

TuneResult TuneFlashCore(const sim::MachineSpec& spec, const FlashShape& shape,
                         const TuningSpace& space, const TuneCandidate& base,
                         const Autotuner& tuner) {
  const bool can_coarsen = CoarseSeq(shape.seq_q, 2048) < shape.seq_q ||
                           CoarseSeq(shape.seq_kv, 2048) < shape.seq_kv;
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) { return SimulateFlashCore(spec, shape, c); },
      [&](const TuneCandidate& c) {
        return FlashCoreLowerBound(spec, shape, c);
      },
      can_coarsen ? Autotuner::EvalFn([&](const TuneCandidate& c) {
        return CoarseSimulateFlashCore(spec, shape, c);
      })
                  : Autotuner::EvalFn());
}

TuneResult TuneAgMoe(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing,
                     const TuningSpace& space, const TuneCandidate& base,
                     const Autotuner& tuner) {
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) {
        return SimulateAgMoe(spec, shape, routing, c);
      },
      [&](const TuneCandidate& c) {
        return AgMoeRoutedLowerBound(spec, shape, routing, c);
      },
      [&](const TuneCandidate& c) {
        return CoarseSimulateAgMoe(spec, shape, routing, c);
      });
}

TuneResult TuneMoeRs(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing,
                     const TuningSpace& space, const TuneCandidate& base,
                     const Autotuner& tuner) {
  return tuner.Search(
      space, base,
      [&](const TuneCandidate& c) {
        return SimulateMoeRs(spec, shape, routing, c);
      },
      [&](const TuneCandidate& c) {
        return MoeRsRoutedLowerBound(spec, shape, routing, c);
      },
      [&](const TuneCandidate& c) {
        return CoarseSimulateMoeRs(spec, shape, routing, c);
      });
}

}  // namespace tilelink::tl
