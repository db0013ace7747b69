#include "tilelink/kernels/gemm_rs.h"

#include <algorithm>

#include "common/math_utils.h"
#include "tilelink/kernels/gemm_producer.h"
#include "tilelink/kernels/ring_rs.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

GemmRs::GemmRs(rt::World& world, const GemmRsConfig& config)
    : FusedKernelBase(world, config.name),
      cfg_(config),
      // One producer-consumer channel per RS chunk of rows; GEMM m-tiles
      // must align with chunk granularity for the counting protocol.
      map_(config.m, config.gemm.bm, world.size(),
           static_cast<int>((config.m / world.size()) / config.rs_block_m)) {
  TL_CHECK_EQ(cfg_.m % ranks(), 0);
  TL_CHECK_EQ((cfg_.m / ranks()) % cfg_.rs_block_m, 0);
  TL_CHECK_EQ(cfg_.rs_block_m % cfg_.gemm.bm, 0);
  const int64_t m_per_rank = cfg_.m / ranks();
  a_ = AllocSymmetric("a", {cfg_.m, cfg_.k});
  b_ = AllocSymmetric("b", {cfg_.k, cfg_.n});
  gemm_out_ = AllocSymmetric("gemm_out", {cfg_.m, cfg_.n});
  staging_ = AllocSymmetric("staging", {cfg_.m, cfg_.n});
  out_ = AllocSymmetric("out", {m_per_rank, cfg_.n});
  const int64_t peer_channels = cfg_.m / cfg_.rs_block_m;
  CreateChannels(map_.num_channels(), static_cast<int>(peer_channels),
                 /*num_host=*/1);

  // Ring RS role.
  RingRsParams rs;
  rs.world_size = ranks();
  rs.m = cfg_.m;
  rs.n = cfg_.n;
  rs.block_m = cfg_.rs_block_m;
  rs.dtype = DType::kBF16;
  rs.partials = gemm_out_;
  rs.staging = staging_;
  rs.outs = out_;
  rs.dma_push = cfg_.dma_push;
  const StaticMapping map = map_;
  const int64_t tiles_n = CeilDiv<int64_t>(cfg_.n, cfg_.gemm.bn);
  rs.wait_for_rows = [map, tiles_n](int64_t lo, int64_t hi) {
    WaitSpec spec;
    spec.space = SignalSpace::kProducerConsumer;
    spec.waits = map.WaitsForRows(lo, hi);
    // Each m-chunk receives one notify per (m-tile, n-tile) pair.
    for (ChannelWait& w : spec.waits) {
      w.threshold *= static_cast<uint64_t>(tiles_n);
    }
    return spec;
  };

  // Producer GEMM role (Figure 4 lines 2-9): the shared partial-GEMM
  // producer — compute a partial tile, store it, then producer_tile_notify
  // the chunk barrier covering its rows.
  PartialGemmParams gemm;
  gemm.m = cfg_.m;
  gemm.k = cfg_.k;
  gemm.n = cfg_.n;
  gemm.tiling = cfg_.gemm;
  gemm.map = map_;
  gemm.a = a_;
  gemm.b = b_;
  gemm.out = gemm_out_;
  gemm.ranks = ranks();
  gemm.order = cfg_.order;
  // Declarative form: the ring consumes the partial-GEMM tiles and writes
  // the reduced shard; the planner derives its chunk schedule from the
  // block geometry.
  overlap_spec_.kernel = cfg_.name;
  overlap_spec_.spaces = {
      {"a", CeilDiv<int64_t>(cfg_.m, cfg_.gemm.bm), cfg_.gemm.bm,
       /*resident=*/true},
      {"b", 1, cfg_.k, /*resident=*/true},
      {"gemm_out", PartialGemmTiles(gemm), cfg_.gemm.bm, /*resident=*/false},
      {"out", m_per_rank / cfg_.rs_block_m, cfg_.rs_block_m,
       /*resident=*/false},
  };
  OverlapRoleSpec ring;
  ring.name = "rs";
  ring.kind = OverlapRoleKind::kRingReduceScatter;
  ring.want_sms = cfg_.comm_sms;
  ring.reads = {{"gemm_out"}};
  ring.writes = {{"out"}};
  ring.block_rows = m_per_rank;
  ring.chunk_rows = cfg_.rs_block_m;
  ring.cols = cfg_.n;
  OverlapRoleSpec producer;
  producer.name = "gemm";
  producer.kind = OverlapRoleKind::kCompute;
  producer.reads = {{"a"}, {"b"}};
  producer.writes = {{"gemm_out"}};
  overlap_spec_.roles = {std::move(ring), std::move(producer)};
  overlap_plan_ = OverlapPlanner(world.spec()).Plan(overlap_spec_);
  rs.col_splits = overlap_plan_.At("rs").col_splits;
  Finalize(BuildFromPlan(overlap_plan_, [&](const PlannedRole& role) {
    return role.name == "rs" ? BuildRingReduceScatter(rs)
                             : BuildPartialGemmProducer(gemm);
  }));
}

}  // namespace tilelink::tl
