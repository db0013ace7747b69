#include "tilelink/multinode/multinode_tuning.h"

#include <algorithm>
#include <utility>

#include "common/math_utils.h"
#include "runtime/world.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/kernels/gemm_producer.h"

namespace tilelink::multinode {
namespace {

// Tile count for a gradient buffer: ~1 MiB tiles, clamped so tiny buffers
// still pipeline and huge ones stay cheap to simulate. Simulated time is
// nearly invariant in the tile count (chunking is what the knobs control);
// this only bounds DES event counts.
constexpr int64_t kMinGradTiles = 16;
constexpr int64_t kMaxGradTiles = 256;

void GradTiling(uint64_t grad_bytes, int64_t* num_tiles,
                uint64_t* tile_bytes) {
  int64_t tiles = static_cast<int64_t>(grad_bytes >> 20);
  tiles = std::clamp(tiles, kMinGradTiles, kMaxGradTiles);
  *num_tiles = tiles;
  *tile_bytes = std::max<uint64_t>(
      1, (grad_bytes + static_cast<uint64_t>(tiles) - 1) /
             static_cast<uint64_t>(tiles));
}

// Overlap bound of the fused hierarchical kernels: launch + max(GEMM
// compute, NIC rail wire, NVLink ring wire), where each rank moves one
// [m/R, block_cols] bf16 block. Rail: every rank exchanges its block with
// each peer node over its NIC. Ring: each rank forwards (per_node - 1)
// stages of `nodes` blocks over NVLink.
sim::TimeNs HierLowerBound(const sim::MachineSpec& spec,
                           const tl::MlpPartShape& shape,
                           const tl::TuneCandidate& c, int64_t block_cols) {
  const int R = spec.num_devices;
  const int nodes = spec.num_nodes();
  const int per_node = spec.devices_per_node;
  const int64_t m_per_rank = R > 0 ? shape.m / R : shape.m;
  const sim::CostModel cost(spec);
  const sim::TimeNs compute =
      cost.GemmComputeTime(shape.m, shape.n, shape.k, c.gemm.bm, c.gemm.bn,
                           c.gemm.bk, spec.sms_per_device);
  const double block_bytes =
      static_cast<double>(m_per_rank) * block_cols * 2;  // bf16
  const sim::TimeNs rail = static_cast<sim::TimeNs>(
      (nodes - 1) * block_bytes / spec.nic_gbps);
  const sim::TimeNs ring = static_cast<sim::TimeNs>(
      static_cast<double>(per_node - 1) * nodes * block_bytes /
      spec.nvlink_gbps);
  return spec.kernel_launch_latency +
         std::max(compute, std::max(rail, ring));
}

template <typename Collective, typename... Layout>
sim::TimeNs RunCollective(const sim::MachineSpec& spec, int64_t num_tiles,
                          uint64_t tile_bytes, const HierConfig& cfg,
                          Layout... layout) {
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  Collective coll(world, num_tiles, tile_bytes, cfg, layout...);
  return world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
    co_await coll.Run(ctx);
  });
}

}  // namespace

tl::TuneCandidate DefaultDpSyncCandidate() {
  tl::TuneCandidate c;
  c.nic_chunk_tiles = 4;
  c.staging_depth = 2;
  return c;
}

uint64_t LayerGradBytes(const models::ModelConfig& model, int tp) {
  const int64_t h = model.hidden;
  // Attention: QKV projection (column parallel) + out projection (row
  // parallel), mirroring E2eEstimator::LayerTime's GEMM shapes.
  int64_t params = h * (3 * h / tp) + (h / tp) * h;
  if (model.is_moe) {
    const int64_t inner = std::max<int64_t>(1, model.intermediate / tp);
    params += 2 * static_cast<int64_t>(model.num_experts) * h * inner;
    if (model.shared_expert_intermediate > 0) {
      params += 2 * h * (model.shared_expert_intermediate / tp);
    }
  } else {
    params += 2 * h * (model.intermediate / tp);
  }
  return static_cast<uint64_t>(params) * 2;  // bf16
}

sim::TimeNs SimulateHierAllGather(const sim::MachineSpec& spec,
                                  int64_t num_tiles, uint64_t tile_bytes,
                                  const HierConfig& cfg) {
  return RunCollective<HierAllGather>(spec, num_tiles, tile_bytes, cfg);
}

sim::TimeNs SimulateFlatAllGather(const sim::MachineSpec& spec,
                                  int64_t num_tiles, uint64_t tile_bytes,
                                  const HierConfig& cfg) {
  return RunCollective<HierAllGather>(spec, num_tiles, tile_bytes, cfg,
                                      RingLayout::kOneRing);
}

sim::TimeNs SimulateHierReduceScatter(const sim::MachineSpec& spec,
                                      int64_t num_tiles, uint64_t tile_bytes,
                                      const HierConfig& cfg) {
  return RunCollective<HierReduceScatter>(spec, num_tiles, tile_bytes, cfg);
}

sim::TimeNs SimulateFlatReduceScatter(const sim::MachineSpec& spec,
                                      int64_t num_tiles, uint64_t tile_bytes,
                                      const HierConfig& cfg) {
  return RunCollective<HierReduceScatter>(spec, num_tiles, tile_bytes, cfg,
                                          RingLayout::kOneRing);
}

sim::TimeNs SimulateDpSync(const sim::MachineSpec& spec, uint64_t grad_bytes,
                           const tl::TuneCandidate& c) {
  int64_t num_tiles = 0;
  uint64_t tile_bytes = 0;
  GradTiling(grad_bytes, &num_tiles, &tile_bytes);
  return RunCollective<DpAllReduce>(spec, num_tiles, tile_bytes,
                                    HierConfig::FromCandidate(c));
}

tl::TuneResult TuneDpSync(const sim::MachineSpec& spec, uint64_t grad_bytes,
                          const tl::TuningSpace& space,
                          const tl::TuneCandidate& base,
                          const tl::Autotuner& tuner) {
  return tuner.Search(
      space, base,
      [&](const tl::TuneCandidate& c) {
        return SimulateDpSync(spec, grad_bytes, c);
      },
      nullptr,
      [&](const tl::TuneCandidate& c) {
        // Quarter volume preserves the chunking/staging ranking at a
        // fraction of the events (chunk counts shrink 4x with the buffer).
        return SimulateDpSync(
            spec, std::max<uint64_t>(grad_bytes / 4, 1u << 20), c);
      });
}

// ---------------------------------------------------------------------------
// Fused GEMM + hierarchical ReduceScatter
// ---------------------------------------------------------------------------
namespace {

// Layer-compose baseline half: the shared partial-GEMM producer as a
// compute-only kernel (no communication roles; the producer notifies its
// own channels, which nothing consumes).
class GemmOnly : public tl::FusedKernelBase {
 public:
  GemmOnly(rt::World& world, const tl::GemmRsConfig& cfg)
      : FusedKernelBase(world, cfg.name + "_gemm_only") {
    tl::PartialGemmParams p;
    p.m = cfg.m;
    p.k = cfg.k;
    p.n = cfg.n;
    p.tiling = cfg.gemm;
    p.map = tl::StaticMapping(
        cfg.m, cfg.gemm.bm, world.size(),
        static_cast<int>((cfg.m / world.size()) / cfg.rs_block_m));
    a_ = AllocSymmetric("a", {cfg.m, cfg.k});
    b_ = AllocSymmetric("b", {cfg.k, cfg.n});
    out_ = AllocSymmetric("out", {cfg.m, cfg.n});
    p.a = a_;
    p.b = b_;
    p.out = out_;
    p.ranks = ranks();
    p.order = cfg.order;
    CreateChannels(p.map.num_channels(), /*num_peer=*/1, /*num_host=*/1);
    tl::OverlapSpec spec;
    spec.kernel = name();
    spec.spaces = {
        {"a", CeilDiv<int64_t>(cfg.m, cfg.gemm.bm), cfg.gemm.bm,
         /*resident=*/true},
        {"b", 1, cfg.k, /*resident=*/true},
        {"gemm_out", tl::PartialGemmTiles(p), cfg.gemm.bm,
         /*resident=*/false},
    };
    tl::OverlapRoleSpec gemm;
    gemm.name = "gemm";
    gemm.kind = tl::OverlapRoleKind::kCompute;
    gemm.reads = {{"a"}, {"b"}};
    gemm.writes = {{"gemm_out"}};
    spec.roles = {std::move(gemm)};
    Finalize(tl::BuildFromPlan(
        tl::OverlapPlanner(world.spec()).Plan(spec),
        [&](const tl::PlannedRole&) {
          return tl::BuildPartialGemmProducer(p);
        }));
  }

 private:
  comm::SymTensor a_, b_, out_;
};

}  // namespace

tl::TuneCandidate DefaultGemmHierRsCandidate(const tl::MlpPartShape& shape,
                                             int tp,
                                             const compute::GemmTiling& tiling) {
  tl::TuneCandidate c;
  c.gemm = tiling;
  // SM push: the copy-engine efficiency penalty costs more than the SM
  // stall here because the ring role's blocks double as reduce bandwidth.
  c.comm = tl::CommResource::kSmPush;
  c.order = tl::TileOrder::kNextRankFirst;
  c.nic_chunk_tiles = 2;
  c.staging_depth = 2;
  c.reduce_sms = 8;
  // Ring chunk rows: the shared layer-default rule, derived from the
  // tiling the kernel will actually run. bm must divide the chunk, which
  // must divide the per-rank shard (a no-op for training-scale shards).
  const int64_t m_per_rank = std::max<int64_t>(1, shape.m / std::max(1, tp));
  while (c.gemm.bm > 1 && m_per_rank % c.gemm.bm != 0) c.gemm.bm /= 2;
  c.comm_tile_m = tl::RsBlockRows(m_per_rank, c.gemm.bm);
  return c;
}

sim::TimeNs GemmHierRsLowerBound(const sim::MachineSpec& spec,
                                 const tl::MlpPartShape& shape,
                                 const tl::TuneCandidate& c) {
  // Each rank's wire block is its node-reduced [m/R, n] output slice.
  return HierLowerBound(spec, shape, c, shape.n);
}

sim::TimeNs SimulateGemmThenHierRs(const sim::MachineSpec& spec,
                                   const tl::MlpPartShape& shape,
                                   const tl::TuneCandidate& c) {
  if (!tl::GemmRsFeasible(spec, shape, c)) return tl::Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  const tl::GemmRsConfig cfg = tl::MakeGemmRsConfig(shape, c);
  GemmOnly gemm(world, cfg);
  // RS at ring-chunk granularity: one tile per rs_block_m rows.
  const int64_t num_tiles = (shape.m / spec.num_devices) / cfg.rs_block_m;
  const uint64_t tile_bytes =
      static_cast<uint64_t>(cfg.rs_block_m) * shape.n * 2;  // bf16
  HierReduceScatter rs(world, num_tiles, tile_bytes,
                       HierConfig::FromCandidate(c));
  return world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
    co_await gemm.Run(ctx);
    co_await rs.Run(ctx);
  });
}

// ---------------------------------------------------------------------------
// Fused hierarchical AllGather + GEMM
// ---------------------------------------------------------------------------
bool AgGemmHierFeasible(const sim::MachineSpec& spec,
                        const tl::MlpPartShape& s, const tl::TuneCandidate& c) {
  const int R = spec.num_devices;
  // A single node runs the flat ag_gemm instead.
  if (spec.num_nodes() < 2 || R % spec.devices_per_node != 0) return false;
  if (s.m % R != 0) return false;
  const int64_t m_per_rank = s.m / R;
  return c.comm_tile_m > 0 && m_per_rank % c.comm_tile_m == 0 &&
         c.nic_chunk_tiles > 0 && c.staging_depth > 0;
}

tl::TuneCandidate DefaultAgGemmHierCandidate(const tl::MlpPartShape& shape,
                                             int tp,
                                             const compute::GemmTiling& tiling) {
  tl::TuneCandidate c;
  c.gemm = tiling;
  c.comm = tl::CommResource::kSmPush;
  c.order = tl::TileOrder::kOwnerFirst;
  c.nic_chunk_tiles = 2;
  c.staging_depth = 2;
  // AG chunk rows: the shared layer-default rule over the gathered rows —
  // but keep at least two chunks per rank at small m, so the rail, ring
  // and consumer pipeline at chunk granularity instead of degenerating to
  // one monolithic message (AG consumers gate on covering chunks, so the
  // chunk rows need not align to the GEMM tile).
  const int64_t m_per_rank = std::max<int64_t>(1, shape.m / std::max(1, tp));
  c.comm_tile_m = tl::RsBlockRows(m_per_rank, c.gemm.bm);
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

tl::AgGemmHierConfig AgGemmHierFromCandidate(const tl::MlpPartShape& shape,
                                             const tl::TuneCandidate& c) {
  tl::AgGemmHierConfig cfg;
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

sim::TimeNs SimulateAgGemmHier(const sim::MachineSpec& spec,
                               const tl::MlpPartShape& shape,
                               const tl::TuneCandidate& c) {
  if (!AgGemmHierFeasible(spec, shape, c)) return tl::Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  tl::AgGemmHier kernel(world, AgGemmHierFromCandidate(shape, c));
  return world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
}

sim::TimeNs AgGemmHierLowerBound(const sim::MachineSpec& spec,
                                 const tl::MlpPartShape& shape,
                                 const tl::TuneCandidate& c) {
  // Each rank's wire block is its [m/R, k] activation shard.
  return HierLowerBound(spec, shape, c, shape.k);
}

sim::TimeNs SimulateHierAgThenGemm(const sim::MachineSpec& spec,
                                   const tl::MlpPartShape& shape,
                                   const tl::TuneCandidate& c) {
  if (!AgGemmHierFeasible(spec, shape, c)) return tl::Autotuner::kInfeasible;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  const int64_t m_per_rank = shape.m / spec.num_devices;
  // AG at chunk granularity over the activation shard rows.
  const int64_t num_tiles = m_per_rank / c.comm_tile_m;
  const uint64_t tile_bytes =
      static_cast<uint64_t>(c.comm_tile_m) * shape.k * 2;  // bf16
  HierAllGather ag(world, num_tiles, tile_bytes, HierConfig::FromCandidate(c));
  // The same full [M, K] x [K, N] tile count as the fused consumer, as a
  // compute-only kernel. GemmOnly keys its (unconsumed) producer channels
  // off rs_block_m, whose mapping requires a multiple of bm — AG chunk
  // rows may be finer than the GEMM tile, so fall back to bm then.
  tl::GemmRsConfig gcfg;
  gcfg.m = shape.m;
  gcfg.k = shape.k;
  gcfg.n = shape.n;
  gcfg.gemm = c.gemm;
  gcfg.rs_block_m =
      c.comm_tile_m % c.gemm.bm == 0 ? c.comm_tile_m : c.gemm.bm;
  gcfg.name = "ag_gemm_hier_compose";
  GemmOnly gemm(world, gcfg);
  return world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
    co_await ag.Run(ctx);
    co_await gemm.Run(ctx);
  });
}

tl::TuneResult TuneAgGemmHier(const sim::MachineSpec& spec,
                              const tl::MlpPartShape& shape,
                              const tl::TuningSpace& space,
                              const tl::TuneCandidate& base,
                              const tl::Autotuner& tuner) {
  return tuner.Search(
      space, base,
      [&](const tl::TuneCandidate& c) {
        return SimulateAgGemmHier(spec, shape, c);
      },
      [&](const tl::TuneCandidate& c) {
        return AgGemmHierLowerBound(spec, shape, c);
      });
}

tl::TuneResult TuneGemmHierRs(const sim::MachineSpec& spec,
                              const tl::MlpPartShape& shape,
                              const tl::TuningSpace& space,
                              const tl::TuneCandidate& base,
                              const tl::Autotuner& tuner) {
  return tuner.Search(
      space, base,
      [&](const tl::TuneCandidate& c) {
        return tl::SimulateGemmRs(spec, shape, c);
      },
      [&](const tl::TuneCandidate& c) {
        return GemmHierRsLowerBound(spec, shape, c);
      });
}

}  // namespace tilelink::multinode
