#include "tilelink/builder/kernel_tuning.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "common/math_utils.h"
#include "common/rng.h"
#include "compute/flash_attention.h"
#include "runtime/world.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/builder/tuned_config_cache.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/ag_moe.h"
#include "tilelink/kernels/moe_rs.h"
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

bool FlashCoreFeasible(const FlashShape& s, const TuneCandidate& c) {
  return s.seq_q > 0 && s.seq_kv > 0 && c.block_q > 0 && c.block_kv > 0;
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

// Collapses the reduction loop to a single k-step: per-tile MMA cost is
// linear in bk, so the makespan is nearly unchanged. The MoE coarse rounds
// apply it on top of their token shrink; on its own it buys no coarse round
// (see the header comment).
TuneCandidate CoarsenReduction(const TuneCandidate& c, int64_t k) {
  TuneCandidate coarse = c;
  coarse.gemm.bk = static_cast<int>(
      std::min<int64_t>(std::max<int64_t>(k, 1),
                        std::numeric_limits<int>::max()));
  return coarse;
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

bool AgGemmHierFeasible(const sim::MachineSpec& spec,
                        const MlpPartShape& s, const TuneCandidate& c) {
  const int R = spec.num_devices;
  // A single node runs the flat ag_gemm instead.
  if (spec.num_nodes() < 2 || R % spec.devices_per_node != 0) return false;
  if (s.m % R != 0) return false;
  const int64_t m_per_rank = s.m / R;
  return c.comm_tile_m > 0 && m_per_rank % c.comm_tile_m == 0 &&
         c.nic_chunk_tiles > 0 && c.staging_depth > 0;
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

AgGemmHierConfig AgGemmHierFromCandidate(const MlpPartShape& shape,
                                         const TuneCandidate& c) {
  AgGemmHierConfig cfg;
  cfg.m = shape.m;
  cfg.k = shape.k;
  cfg.n = shape.n;
  cfg.gemm = c.gemm;
  cfg.comm_tile_m = c.comm_tile_m;
  cfg.nic_chunk_blocks = std::max(1, c.nic_chunk_tiles);
  cfg.staging_depth = std::max(1, c.staging_depth);
  cfg.comm_sms = c.comm_sms;
  cfg.order = c.order;
  return cfg;
}

compute::GemmTiling LayerTiling(int64_t k) {
  compute::GemmTiling t{128, 256, 64};
  t.bk = static_cast<int>(std::max<int64_t>(64, RoundUp<int64_t>(k / 8, 64)));
  return t;
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

sim::TimeNs SimulateAgGemmHier(const sim::MachineSpec& spec,
                               const MlpPartShape& shape,
                               const TuneCandidate& c) {
  if (!AgGemmHierFeasible(spec, shape, c)) return Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  AgGemmHier kernel(world, AgGemmHierFromCandidate(shape, c));
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
  if (!FlashCoreFeasible(shape, c)) return Autotuner::kInfeasible;
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

namespace {

// ---- Coarse shapes --------------------------------------------------------

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

// The coarse MoE round's problem: a quarter of the token count (kept
// divisible by every chunking knob the spaces expose) under a fresh
// deterministic routing of the same distribution, or the full shape and
// routing when the shape is too small to shrink. The fresh routing is drawn
// by the first coarse evaluation, once for all of a search's workers, so a
// family built only to time its seed or a cached config never draws it.
class CoarseMoe {
 public:
  CoarseMoe(const sim::MachineSpec& spec, const MoeShape& shape,
            std::shared_ptr<const compute::MoeRouting> full)
      : shape_(shape), full_(std::move(full)) {
    const int64_t granule = kMoeCoarseGranule * spec.num_devices;
    const int64_t granules = shape.m / 4 / granule;
    shrunk_ = granules >= 1;
    if (shrunk_) shape_.m = granules * granule;
  }

  const MoeShape& shape() const { return shape_; }

  const compute::MoeRouting& routing() {
    if (!shrunk_) return *full_;
    std::call_once(drawn_once_, [this] {
      Rng rng(kMoeCoarseRoutingSeed);
      drawn_ = compute::RandomRouting(shape_.m, shape_.num_experts,
                                      shape_.topk, rng);
    });
    return drawn_;
  }

 private:
  MoeShape shape_;
  bool shrunk_ = false;
  std::shared_ptr<const compute::MoeRouting> full_;
  std::once_flag drawn_once_;
  compute::MoeRouting drawn_;
};

// ---- Planner-canonical candidates ---------------------------------------
// The candidate the planner actually builds from `c`: each comm role's SM
// request clamped to its work items by ResourceBudget::ClaimComm (pull or
// push tiles for AgGemm, ring chunks for GemmRs and MoeRs, reduce chunks for
// MoeRs's reduce_sms; 0 for a DMA AllGather, which claims none), AgMoe's
// sm_push written as the sm_pull kernel it builds, and channels_per_rank ==
// 0 resolved by StaticMapping::ResolveChannelsPerRank for the AllGather
// families. Candidates with equal canonical forms build the same kernel, so
// they simulate bitwise alike. The lower bounds read their SM claims off
// the canonical form. An infeasible candidate is its own canonical form.

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
// One overlap bound per pruning family: max(compute + launch, wire time),
// with the comm SM claim taken from the canonical candidate. 0 (never
// prune) for infeasible candidates; the evaluator rejects those.

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
  if (!FlashCoreFeasible(shape, c)) return 0;
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

// ---- Hand-picked seeds and spaces ----------------------------------------
// The paper's figure defaults, adapted to shapes the defaults cannot tile.
// They seed every search, so tuned configs can only improve on them.

// Adapts the hand-picked comm tiling to the per-rank shard: the largest
// power-of-two comm tile <= the requested one that divides the shard, then
// the largest channel count <= the requested one that divides the tiles.
// Training-scale shapes (shards that are multiples of 128 rows) keep the
// paper defaults untouched; serving-path shards padded to 32 rows shrink
// until the StaticMapping divisibility constraints hold.
void AdaptCommTiling(int64_t per_rank, TuneCandidate* c) {
  int tile = c->comm_tile_m;
  while (tile > 1 && per_rank % tile != 0) tile /= 2;
  c->comm_tile_m = tile;
  if (c->channels_per_rank > 0) {
    const int64_t tiles_per_rank = std::max<int64_t>(1, per_rank / tile);
    int cpr = c->channels_per_rank;
    while (cpr > 1 && tiles_per_rank % cpr != 0) cpr /= 2;
    c->channels_per_rank = cpr;
  }
}

int64_t PerRankRows(const sim::MachineSpec& spec, int64_t m) {
  return m / std::max(spec.num_devices, 1);
}

// Mlp() for training-scale per-rank shards, ServingMlp() below 1024 rows.
TuningSpace MlpSpace(int64_t per_rank) {
  return per_rank < 1024 ? TuningSpace::ServingMlp() : TuningSpace::Mlp();
}

TuneCandidate AgGemmSeed(int64_t per_rank, int64_t k) {
  TuneCandidate c;
  c.gemm = LayerTiling(k);
  c.comm_tile_m = 128;
  c.channels_per_rank = 4;
  c.comm = CommResource::kDma;  // the paper's generated AG+GEMM
  AdaptCommTiling(per_rank, &c);
  return c;
}

TuneCandidate GemmRsSeed(int64_t per_rank, int64_t k) {
  TuneCandidate c;
  c.gemm = LayerTiling(k);
  // bm must divide the RS chunk, which must divide the per-rank shard:
  // shrink the GEMM row tile until the chunk rule has something to work
  // with (a no-op for training-scale shards).
  while (c.gemm.bm > 1 && per_rank % c.gemm.bm != 0) c.gemm.bm /= 2;
  c.comm_tile_m = RsBlockRows(per_rank, c.gemm.bm);
  c.comm = CommResource::kDma;  // hybrid push (paper's best for GEMM+RS)
  c.order = TileOrder::kNextRankFirst;
  return c;
}

// The two-node GEMM+RS seed: the one-node rules plus the NIC defaults.
TuneCandidate GemmHierRsSeed(int64_t per_rank, int64_t k) {
  TuneCandidate c = GemmRsSeed(std::max<int64_t>(1, per_rank), k);
  // SM push: the copy-engine efficiency penalty costs more than the SM
  // stall here because the ring role's blocks double as reduce bandwidth.
  c.comm = CommResource::kSmPush;
  c.nic_chunk_tiles = 2;
  c.staging_depth = 2;
  c.reduce_sms = 8;
  return c;
}

TuneCandidate AgGemmHierSeed(const MlpPartShape& shape, int64_t per_rank) {
  TuneCandidate c;
  c.gemm = LayerTiling(shape.k);
  c.comm = CommResource::kSmPush;
  c.order = TileOrder::kOwnerFirst;
  c.nic_chunk_tiles = 2;
  c.staging_depth = 2;
  // AG chunk rows: the shared layer-default rule over the gathered rows —
  // but keep at least two chunks per rank at small m, so the rail, ring
  // and consumer pipeline at chunk granularity instead of degenerating to
  // one monolithic message (AG consumers gate on covering chunks, so the
  // chunk rows need not align to the GEMM tile).
  const int64_t m_per_rank = std::max<int64_t>(1, per_rank);
  c.comm_tile_m = RsBlockRows(m_per_rank, c.gemm.bm);
  while (c.comm_tile_m > 1 && c.comm_tile_m % 2 == 0 &&
         m_per_rank % (c.comm_tile_m / 2) == 0 &&
         m_per_rank / c.comm_tile_m < 2) {
    c.comm_tile_m /= 2;
  }
  // Likewise at least two NIC messages per rail peer whenever the chunk
  // count allows it.
  const int64_t cpb = m_per_rank / std::max(1, c.comm_tile_m);
  c.nic_chunk_tiles =
      static_cast<int>(std::clamp<int64_t>(cpb / 2, 1, c.nic_chunk_tiles));
  // With only a couple of chunks per peer the rail stream is shorter than
  // the staging window anyway; a depth-1 window lands chunks in consumer
  // order and hands the spare rail block back to compute.
  if (cpb <= 2) c.staging_depth = 1;
  // Small-m also underfills the gathered GEMM's grid: narrow the n-tile so
  // more (shorter) tiles fill the blocks, halving the drain after the last
  // gathered chunk lands.
  while (c.gemm.bn > 128 &&
         CeilDiv<int64_t>(shape.m, c.gemm.bm) *
                 CeilDiv<int64_t>(shape.n, c.gemm.bn) <
             128) {
    c.gemm.bn /= 2;
  }
  return c;
}

TuneCandidate FlashSeed() {
  TuneCandidate c;
  c.block_q = 128;
  c.block_kv = 1024;  // coarse: time is linear in kv extent
  return c;
}

TuneCandidate AgMoeSeed(int64_t per_rank, int64_t hidden) {
  TuneCandidate c;
  c.gemm = LayerTiling(hidden);
  c.gemm.bn = 128;
  c.comm_tile_m = 128;
  c.channels_per_rank = 4;
  c.comm = CommResource::kSmPull;  // matches bench_fig9 tuning
  // Large-batch e2e shapes are compute-dominated: keep the comm role lean.
  c.comm_sms = 8;
  AdaptCommTiling(per_rank, &c);
  return c;
}

TuneCandidate MoeRsSeed(int64_t per_rank, int64_t inner) {
  TuneCandidate c;
  c.gemm = LayerTiling(inner);
  c.gemm.bn = 128;
  c.sorted_channel_rows = 2048;
  int rs_base = 128;
  while (rs_base > 1 && per_rank % rs_base != 0) rs_base /= 2;
  c.comm_tile_m = RsBlockRows(per_rank, rs_base);
  // The topk-reduce chunk must divide the RS chunk, which RsBlockRows may
  // size at 160, 192, 224, ... rows: take its largest divisor up to 128.
  c.reduce_block_tokens = std::min(128, c.comm_tile_m);
  while (c.comm_tile_m % c.reduce_block_tokens != 0) --c.reduce_block_tokens;
  c.comm = CommResource::kSmPush;  // matches bench_fig9 tuning
  c.comm_sms = 8;
  c.reduce_sms = 8;
  return c;
}

}  // namespace

// ---- The record and its factories ---------------------------------------

namespace {

// `fn` with the family's machine and shape bound: the form of every record
// field.
template <typename R, typename Shape>
std::function<R(const TuneCandidate&)> Bind(
    R (*fn)(const sim::MachineSpec&, const Shape&, const TuneCandidate&),
    const sim::MachineSpec& spec, const Shape& shape) {
  return [fn, spec, shape](const TuneCandidate& c) {
    return fn(spec, shape, c);
  };
}

KernelFamily MoeFamily(const char* kind, const sim::MachineSpec& spec,
                       const MoeShape& shape, uint64_t routing_seed) {
  KernelFamily f;
  f.kind = kind;
  f.dims = {shape.m,
            shape.hidden,
            shape.inner,
            static_cast<int64_t>(shape.num_experts),
            static_cast<int64_t>(shape.topk),
            static_cast<int64_t>(routing_seed)};
  f.spec = spec;
  return f;
}

}  // namespace

std::string KernelFamily::Key() const {
  return TunedConfigCache::Key(kind, dims, spec);
}

TuneResult Tune(const KernelFamily& f, const Autotuner& tuner) {
  return tuner.Search(f.space, f.seed, f.evaluate, f.lower_bound, f.coarse,
                      f.canonical);
}

KernelFamily AgGemmFamily(const sim::MachineSpec& spec,
                          const MlpPartShape& shape) {
  const int64_t per_rank = PerRankRows(spec, shape.m);
  KernelFamily f;
  f.dims = {shape.m, shape.k, shape.n};
  f.spec = spec;
  const TuneCandidate hier = AgGemmHierSeed(shape, per_rank);
  if (spec.num_nodes() > 1 && AgGemmHierFeasible(spec, shape, hier)) {
    f.kind = "ag_gemm_hier";
    f.seed = hier;
    f.space = TuningSpace::AgGemmHier();
    f.feasible = Bind(AgGemmHierFeasible, spec, shape);
    f.evaluate = Bind(SimulateAgGemmHier, spec, shape);
    return f;
  }
  f.kind = "ag_gemm";
  f.seed = AgGemmSeed(per_rank, shape.k);
  f.space = MlpSpace(per_rank);
  f.feasible = Bind(AgGemmFeasible, spec, shape);
  f.evaluate = Bind(SimulateAgGemm, spec, shape);
  f.lower_bound = Bind(AgGemmLowerBound, spec, shape);
  f.canonical = Bind(CanonicalAgGemm, spec, shape);
  return f;
}

KernelFamily GemmRsFamily(const sim::MachineSpec& spec,
                          const MlpPartShape& shape) {
  const int64_t per_rank = PerRankRows(spec, shape.m);
  KernelFamily f;
  f.dims = {shape.m, shape.k, shape.n};
  f.spec = spec;
  f.feasible = Bind(GemmRsFeasible, spec, shape);
  f.evaluate = Bind(SimulateGemmRs, spec, shape);
  if (spec.num_nodes() > 1) {
    f.kind = "gemm_hier_rs";
    f.seed = GemmHierRsSeed(per_rank, shape.k);
    f.space = TuningSpace::GemmHierRs();
    return f;
  }
  f.kind = "gemm_rs";
  f.seed = GemmRsSeed(per_rank, shape.k);
  f.space = MlpSpace(per_rank);
  f.lower_bound = Bind(GemmRsLowerBound, spec, shape);
  f.canonical = Bind(CanonicalGemmRs, spec, shape);
  return f;
}

KernelFamily FlashCoreFamily(const sim::MachineSpec& spec,
                             const FlashShape& shape) {
  KernelFamily f;
  f.kind = "flash_core";
  f.dims = {shape.batch_heads, shape.seq_q, shape.seq_kv, shape.head_dim};
  f.spec = spec;
  f.seed = FlashSeed();
  f.space = TuningSpace::Attention();
  f.feasible = [shape](const TuneCandidate& c) {
    return FlashCoreFeasible(shape, c);
  };
  f.evaluate = Bind(SimulateFlashCore, spec, shape);
  f.lower_bound = Bind(FlashCoreLowerBound, spec, shape);
  FlashShape coarse = shape;
  coarse.seq_q = CoarseSeq(shape.seq_q, 2048);
  coarse.seq_kv = CoarseSeq(shape.seq_kv, 2048);
  if (coarse.seq_q < shape.seq_q || coarse.seq_kv < shape.seq_kv) {
    f.coarse = [spec, coarse](const TuneCandidate& c) {
      return SimulateFlashCore(spec, coarse, c);
    };
  }
  return f;
}

KernelFamily AgMoeFamily(const sim::MachineSpec& spec, const MoeShape& shape,
                         std::shared_ptr<const compute::MoeRouting> routing,
                         uint64_t routing_seed) {
  KernelFamily f = MoeFamily("ag_moe", spec, shape, routing_seed);
  f.seed = AgMoeSeed(PerRankRows(spec, shape.m), shape.hidden);
  f.space = TuningSpace::MoePart1();
  f.feasible = Bind(AgMoeFeasible, spec, shape);
  auto coarse = std::make_shared<CoarseMoe>(spec, shape, routing);
  f.evaluate = [spec, shape, routing](const TuneCandidate& c) {
    return SimulateAgMoe(spec, shape, *routing, c);
  };
  f.coarse = [spec, coarse](const TuneCandidate& c) {
    return SimulateAgMoe(spec, coarse->shape(), coarse->routing(),
                         CoarsenReduction(c, coarse->shape().hidden));
  };
  f.canonical = [spec, shape, coarse](const TuneCandidate& c) {
    // The coarse round simulates fewer tokens, where channels_per_rank 0
    // resolves to fewer channels than at the full shape: a 0 merges with an
    // explicit count only when both shapes resolve it alike.
    TuneCandidate k = CanonicalAgMoe(spec, shape, c);
    if (CanonicalAgMoe(spec, coarse->shape(), c).channels_per_rank !=
        k.channels_per_rank) {
      k.channels_per_rank = c.channels_per_rank;
    }
    return k;
  };
  return f;
}

KernelFamily MoeRsFamily(const sim::MachineSpec& spec, const MoeShape& shape,
                         std::shared_ptr<const compute::MoeRouting> routing,
                         uint64_t routing_seed) {
  KernelFamily f = MoeFamily("moe_rs", spec, shape, routing_seed);
  f.seed = MoeRsSeed(PerRankRows(spec, shape.m), shape.inner);
  f.space = TuningSpace::MoePart2();
  f.feasible = Bind(MoeRsFeasible, spec, shape);
  auto coarse = std::make_shared<CoarseMoe>(spec, shape, routing);
  f.evaluate = [spec, shape, routing](const TuneCandidate& c) {
    return SimulateMoeRs(spec, shape, *routing, c);
  };
  f.coarse = [spec, coarse](const TuneCandidate& c) {
    return SimulateMoeRs(spec, coarse->shape(), coarse->routing(),
                         CoarsenReduction(c, coarse->shape().inner));
  };
  f.canonical = Bind(CanonicalMoeRs, spec, shape);
  return f;
}

}  // namespace tilelink::tl
