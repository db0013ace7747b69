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

tl::KernelFamily DpSyncFamily(const sim::MachineSpec& spec,
                              uint64_t grad_bytes) {
  tl::KernelFamily f;
  f.kind = "dp_sync";
  f.dims = {static_cast<int64_t>(grad_bytes)};
  f.spec = spec;
  f.seed.nic_chunk_tiles = 4;
  f.seed.staging_depth = 2;
  f.space = tl::TuningSpace::MultiNode();
  f.feasible = [](const tl::TuneCandidate&) { return true; };
  f.evaluate = [spec, grad_bytes](const tl::TuneCandidate& c) {
    return SimulateDpSync(spec, grad_bytes, c);
  };
  f.coarse = [spec, grad_bytes](const tl::TuneCandidate& c) {
    // Quarter volume preserves the chunking/staging ranking at a fraction
    // of the events (chunk counts shrink 4x with the buffer).
    return SimulateDpSync(spec, std::max<uint64_t>(grad_bytes / 4, 1u << 20),
                          c);
  };
  return f;
}

// ---------------------------------------------------------------------------
// Layer-level compose baselines
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

sim::TimeNs SimulateHierAgThenGemm(const sim::MachineSpec& spec,
                                   const tl::MlpPartShape& shape,
                                   const tl::TuneCandidate& c) {
  if (!tl::AgGemmHierFeasible(spec, shape, c)) {
    return tl::Autotuner::kInfeasible;
  }
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

}  // namespace tilelink::multinode
