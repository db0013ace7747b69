#include "tilelink/kernels/ag_gemm.h"

#include <algorithm>

#include "common/math_utils.h"
#include "compute/tile_math.h"
#include "tilelink/kernels/ag_consumer.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {
namespace {

// The flat AllGather + GEMM declarative form: a row AllGather (on
// `comm_resource`, `comm_sms` blocks) of the resident shard into the
// gathered activation, consumed by `gemm_tiles` GEMM tiles of `gemm_bm`
// rows. The comm role reads the resident shard and writes every gathered
// tile; the GEMM reads the gathered activation plus the resident weight and
// writes one output tile per consumer tile.
OverlapSpec AgGemmOverlapSpec(const std::string& kernel,
                              const StaticMapping& map, int64_t k,
                              int64_t gemm_bm, int64_t gemm_tiles,
                              CommResource comm_resource, int comm_sms) {
  OverlapSpec spec;
  spec.kernel = kernel;
  spec.spaces = {
      {"a_shard", map.tiles_per_rank(), map.tile_m(), /*resident=*/true},
      {"a_full", map.num_tiles(), map.tile_m(), /*resident=*/false},
      {"b", 1, k, /*resident=*/true},
      {"c", gemm_tiles, gemm_bm, /*resident=*/false},
  };
  OverlapRoleSpec comm;
  comm.name = "comm";
  comm.kind = OverlapRoleKind::kRowAllGather;
  comm.resource = comm_resource;
  comm.want_sms = comm_sms;
  comm.reads = {{"a_shard"}};
  comm.writes = {{"a_full"}};
  OverlapRoleSpec gemm;
  gemm.name = "compute";
  gemm.kind = OverlapRoleKind::kCompute;
  gemm.reads = {{"a_full"}, {"b"}};
  gemm.writes = {{"c"}};
  spec.roles = {std::move(comm), std::move(gemm)};
  return spec;
}

}  // namespace

AgGemm::AgGemm(rt::World& world, const AgGemmConfig& config)
    : FusedKernelBase(world, config.name),
      cfg_(config),
      map_(config.m, config.comm_tile_m, world.size(),
           StaticMapping::ResolveChannelsPerRank(
               config.m, config.comm_tile_m, world.size(),
               config.channels_per_rank)) {
  TL_CHECK_EQ(cfg_.m % ranks(), 0);
  const int64_t m_per_rank = cfg_.m / ranks();
  a_shards_ = AllocSymmetric("a_shard", {m_per_rank, cfg_.k});
  a_full_ = AllocSymmetric("a_full", {cfg_.m, cfg_.k});
  b_ = AllocSymmetric("b", {cfg_.k, cfg_.n});
  c_ = AllocSymmetric("c", {cfg_.m, cfg_.n});
  CreateChannels(map_.num_channels(), /*num_peer=*/1, /*num_host=*/1);

  const int64_t gemm_tiles = CeilDiv<int64_t>(cfg_.m, cfg_.gemm.bm) *
                             CeilDiv<int64_t>(cfg_.n, cfg_.gemm.bn);
  overlap_spec_ = AgGemmOverlapSpec(cfg_.name, map_, cfg_.k, cfg_.gemm.bm,
                                    gemm_tiles, cfg_.comm, cfg_.comm_sms);
  overlap_plan_ = OverlapPlanner(world.spec()).Plan(overlap_spec_);
  Finalize(BuildFromPlan(overlap_plan_, [this](const PlannedRole& role) {
    if (role.name != "comm") return BuildCompute();
    return BuildRowAllGather(AllGatherParams(), cfg_.comm);
  }));
}

RowAllGatherParams AgGemm::AllGatherParams() const {
  return RowAllGatherParams{map_, a_shards_, a_full_, ranks(),
                            cfg_.m / ranks()};
}

// Computation role: the shared AG+GEMM consumer (ag_consumer.h), waiting
// on the static row mapping's channels.
BlockProgram AgGemm::BuildCompute() {
  AgConsumerParams p;
  p.m = cfg_.m;
  p.k = cfg_.k;
  p.n = cfg_.n;
  p.tiling = cfg_.gemm;
  p.a_full = a_full_;
  p.b = b_;
  p.c = c_;
  p.ranks = ranks();
  p.order = cfg_.order;
  const StaticMapping map = map_;
  p.waits_for_rows = [map](int64_t lo, int64_t hi) {
    return map.WaitsForRows(lo, hi);
  };
  return BuildAgGemmConsumer(p);
}

std::optional<sim::Coro> AgGemm::HostComm(rt::RankCtx& ctx) {
  if (cfg_.comm != CommResource::kDma) return std::nullopt;
  return DmaRowAllGather(ctx, channel(ctx.rank), AllGatherParams());
}

}  // namespace tilelink::tl
