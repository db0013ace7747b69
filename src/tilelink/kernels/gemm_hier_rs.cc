#include "tilelink/kernels/gemm_hier_rs.h"

#include <algorithm>

#include "common/math_utils.h"
#include "tilelink/builder/link_roles.h"
#include "tilelink/kernels/gemm_producer.h"
#include "tilelink/kernels/ring_rs.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

GemmHierRs::GemmHierRs(rt::World& world, const GemmHierRsConfig& config)
    : FusedKernelBase(world, config.name),
      cfg_(config),
      // One producer-consumer channel per ring chunk of rows; GEMM m-tiles
      // must align with chunk granularity for the counting protocol.
      map_(config.m, config.gemm.bm, world.size(),
           static_cast<int>((config.m / world.size()) / config.rs_block_m)) {
  const sim::MachineSpec& spec = world.spec();
  TL_CHECK_EQ(spec.num_devices % spec.devices_per_node, 0);
  nodes_ = spec.num_nodes();
  per_node_ = spec.devices_per_node;
  TL_CHECK_EQ(cfg_.m % ranks(), 0);
  const int64_t m_per_rank = cfg_.m / ranks();
  TL_CHECK_EQ(m_per_rank % cfg_.rs_block_m, 0);
  TL_CHECK_EQ(cfg_.rs_block_m % cfg_.gemm.bm, 0);
  TL_CHECK_GT(cfg_.nic_chunk_blocks, 0);
  TL_CHECK_GT(cfg_.staging_depth, 0);
  const bool rail = nodes_ > 1;
  // The ring role also covers the single-rank-per-node single-node case
  // (1x1): with group size 1 it degenerates to the final-only
  // wait/reduce/store path that moves the GEMM partial into out_, exactly
  // like GemmRs on one rank.
  const bool ring = per_node_ > 1 || !rail;

  a_ = AllocSymmetric("a", {cfg_.m, cfg_.k});
  b_ = AllocSymmetric("b", {cfg_.k, cfg_.n});
  gemm_out_ = AllocSymmetric("gemm_out", {cfg_.m, cfg_.n});
  out_ = AllocSymmetric("out", {m_per_rank, cfg_.n});
  if (ring) ring_staging_ = AllocSymmetric("ring_staging", {cfg_.m, cfg_.n});
  if (rail && ring) {
    ring_out_ = AllocSymmetric(
        "ring_out", {static_cast<int64_t>(nodes_) * m_per_rank, cfg_.n});
  }
  if (rail) {
    rail_staging_ = AllocSymmetric(
        "rail_staging", {static_cast<int64_t>(nodes_ - 1) * m_per_rank,
                         cfg_.n});
  }

  // Chunk geometry: the ring moves rs_block_m-row chunks, the rail moves
  // nic_chunk_blocks of them per NIC message (ragged last chunk allowed).
  const int64_t cpb_ring = m_per_rank / cfg_.rs_block_m;
  const int64_t rail_rows =
      static_cast<int64_t>(cfg_.nic_chunk_blocks) * cfg_.rs_block_m;
  const int64_t cpb_rail = RailChunksPerBlock(m_per_rank, rail_rows);
  const int64_t gemm_tiles = CeilDiv<int64_t>(cfg_.m, cfg_.gemm.bm) *
                             CeilDiv<int64_t>(cfg_.n, cfg_.gemm.bn);

  // Plan first — the planner's column-split decision (the small-m fix)
  // scales the ring chunk count and the kPeer channel layout.
  overlap_spec_ = BuildOverlapSpec(ring, rail, m_per_rank, gemm_tiles,
                                   cpb_ring, cpb_rail);
  overlap_plan_ = OverlapPlanner(spec).Plan(overlap_spec_);
  const int S = ring ? overlap_plan_.At("ring").col_splits : 1;
  if (rail) rail_blocks_ = overlap_plan_.At("rail").blocks;

  // kPeer channel layout: [ring | ring_done | rail arrivals]. The ring
  // section scales with the column split; ring_done channels stay one per
  // *row* chunk, reached after S strip notifies.
  RingRsParams rs;
  rs.world_size = ranks();
  rs.m = cfg_.m;
  rs.n = cfg_.n;
  rs.block_m = cfg_.rs_block_m;
  rs.dtype = DType::kBF16;
  rs.partials = gemm_out_;
  rs.staging = ring_staging_;
  rs.outs = rail && ring ? ring_out_ : out_;
  rs.dma_push = cfg_.dma_push;
  rs.group_size = per_node_;
  rs.seg_blocks = nodes_;
  rs.col_splits = S;
  const int64_t ring_chunks = ring ? RingRsChunks(rs) : 0;
  const int ring_peer = ring ? per_node_ * static_cast<int>(ring_chunks) : 0;
  const int ring_done_base = ring_peer;
  const int ring_done_count =
      rail && ring ? static_cast<int>(ring_chunks / S) : 0;
  const int rail_base = ring_done_base + ring_done_count;
  const int rail_count =
      rail ? (nodes_ - 1) * static_cast<int>(cpb_rail) : 0;
  CreateChannels(map_.num_channels(), ring_peer + ring_done_count + rail_count,
                 /*num_host=*/1);

  const StaticMapping map = map_;
  const int64_t tiles_n = CeilDiv<int64_t>(cfg_.n, cfg_.gemm.bn);
  auto wait_rows = [map, tiles_n](int64_t lo, int64_t hi) {
    WaitSpec spec;
    spec.space = SignalSpace::kProducerConsumer;
    spec.waits = map.WaitsForRows(lo, hi);
    // Each m-chunk receives one notify per (m-tile, n-tile) pair.
    for (ChannelWait& w : spec.waits) {
      w.threshold *= static_cast<uint64_t>(tiles_n);
    }
    return spec;
  };
  rs.wait_for_rows = wait_rows;
  if (rail && ring) {
    // Release each node-reduced chunk to the rail roles on this rank. The
    // raw chunk id maps to its row chunk; the rail waits for all S strips.
    rs.final_notify = [ring_done_base, S](const Env& e, int64_t chunk) {
      return NotifyOne(SignalSpace::kPeer, e.rank,
                       ring_done_base + static_cast<int>(chunk / S));
    };
  }

  // Rail roles. With single-rank nodes there is no ring: the "node partial"
  // is the rank's own GEMM partial, gated on the producer channels.
  NicRailPushParams push;
  NicRailReduceParams red;
  if (rail) {
    push.nodes = nodes_;
    push.per_node = per_node_;
    push.block_rows = m_per_rank;
    push.n = cfg_.n;
    push.chunk_rows = rail_rows;
    push.dtype = DType::kBF16;
    push.src = ring ? ring_out_ : gemm_out_;
    push.staging = rail_staging_;
    push.rail_channel_base = rail_base;
    red.nodes = nodes_;
    red.per_node = per_node_;
    red.block_rows = m_per_rank;
    red.n = cfg_.n;
    red.chunk_rows = rail_rows;
    red.dtype = DType::kBF16;
    red.src = push.src;
    red.staging = rail_staging_;
    red.outs = out_;
    red.rail_channel_base = rail_base;
    const int ncb = cfg_.nic_chunk_blocks;
    if (ring) {
      // Node-reduced rows live in ring_out, block-major by dest node.
      push.src_row = [m_per_rank](const Env&, int peer_node, int64_t row) {
        return static_cast<int64_t>(peer_node) * m_per_rank + row;
      };
      auto ring_done_wait = [ring_done_base, cpb_ring, ncb, S](
                                int block, int64_t chunk) {
        WaitSpec spec;
        spec.space = SignalSpace::kPeer;
        const int64_t lo = chunk * ncb;
        const int64_t hi = std::min(cpb_ring, lo + ncb);
        for (int64_t cr = lo; cr < hi; ++cr) {
          spec.waits.push_back(ChannelWait{
              ring_done_base +
                  static_cast<int>(block * cpb_ring + cr),
              static_cast<uint64_t>(S)});
        }
        return spec;
      };
      push.wait = [ring_done_wait](const Env&, int peer_node,
                                   int64_t chunk) {
        return ring_done_wait(peer_node, chunk);
      };
      const int per_node = per_node_;
      red.src_row = [m_per_rank, per_node](const Env& e, int64_t row) {
        return static_cast<int64_t>(e.rank / per_node) * m_per_rank + row;
      };
      red.wait = [ring_done_wait, per_node](const Env& e, int64_t chunk) {
        return ring_done_wait(e.rank / per_node, chunk);
      };
    } else {
      const int per_node = per_node_;
      push.src_row = [m_per_rank, per_node](const Env& e, int peer_node,
                                            int64_t row) {
        return (static_cast<int64_t>(peer_node) * per_node +
                e.rank % per_node) *
                   m_per_rank +
               row;
      };
      auto gemm_wait = [wait_rows, m_per_rank, rail_rows](int64_t g,
                                                          int64_t chunk) {
        const int64_t lo = g * m_per_rank + chunk * rail_rows;
        const int64_t hi =
            std::min(g * m_per_rank + m_per_rank, lo + rail_rows);
        return wait_rows(lo, hi);
      };
      push.wait = [gemm_wait, per_node](const Env& e, int peer_node,
                                        int64_t chunk) {
        return gemm_wait(static_cast<int64_t>(peer_node) * per_node +
                             e.rank % per_node,
                         chunk);
      };
      red.src_row = [m_per_rank](const Env& e, int64_t row) {
        return static_cast<int64_t>(e.rank) * m_per_rank + row;
      };
      red.wait = [gemm_wait](const Env& e, int64_t chunk) {
        return gemm_wait(e.rank, chunk);
      };
    }
  }

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

  Finalize(BuildFromPlan(overlap_plan_, [&](const PlannedRole& role) {
    if (role.name == "ring") return BuildRingReduceScatter(rs);
    if (role.name == "rail") return BuildNicRailPush(push);
    if (role.name == "rail_reduce") return BuildNicRailReduce(red);
    return BuildPartialGemmProducer(gemm);
  }));
}

// Declarative form: gemm -> ring (node-local RS over the partials) ->
// rail (NIC push of node-reduced blocks) -> rail_reduce (fold arrivals,
// store the output shard). Roles are declared in claim order.
OverlapSpec GemmHierRs::BuildOverlapSpec(bool ring, bool rail,
                                         int64_t m_per_rank,
                                         int64_t gemm_tiles, int64_t cpb_ring,
                                         int64_t cpb_rail) const {
  OverlapSpec spec;
  spec.kernel = cfg_.name;
  spec.spaces = {
      {"a", CeilDiv<int64_t>(cfg_.m, cfg_.gemm.bm), cfg_.gemm.bm,
       /*resident=*/true},
      {"b", 1, cfg_.k, /*resident=*/true},
      {"gemm_out", gemm_tiles, cfg_.gemm.bm, /*resident=*/false},
      {"out", cpb_ring, cfg_.rs_block_m, /*resident=*/false},
  };
  if (rail && ring) {
    spec.spaces.push_back({"ring_out", static_cast<int64_t>(nodes_) * cpb_ring,
                           cfg_.rs_block_m, /*resident=*/false});
  }
  if (rail) {
    spec.spaces.push_back(
        {"rail_staging", static_cast<int64_t>(nodes_ - 1) * cpb_rail,
         cfg_.nic_chunk_blocks * cfg_.rs_block_m, /*resident=*/false});
  }
  const std::string node_partial =
      rail && ring ? "ring_out" : (ring ? "out" : "gemm_out");
  if (ring) {
    OverlapRoleSpec r;
    r.name = "ring";
    r.kind = OverlapRoleKind::kRingReduceScatter;
    r.want_sms = cfg_.comm_sms;
    r.reads = {{"gemm_out"}};
    r.writes = {{node_partial}};
    r.group_size = per_node_;
    r.seg_blocks = nodes_;
    r.block_rows = m_per_rank;
    r.chunk_rows = cfg_.rs_block_m;
    r.cols = cfg_.n;
    // Small-m fix: split columns only when a NIC rail consumes the ring
    // output (the split exists to release node-reduced chunks to the rail
    // sooner). Single-node the fused kernel must stay schedule-identical
    // to GemmRs (pinned by the degenerate-topology tests).
    r.allow_col_split = rail;
    spec.roles.push_back(std::move(r));
  }
  if (rail) {
    OverlapRoleSpec p;
    p.name = "rail";
    p.kind = OverlapRoleKind::kNicRailPush;
    p.reads = {{ring ? "ring_out" : "gemm_out"}};
    p.writes = {{"rail_staging"}};
    p.block_rows = m_per_rank;
    p.chunk_rows = cfg_.rs_block_m;
    p.nic_chunk_blocks = cfg_.nic_chunk_blocks;
    p.staging_depth = cfg_.staging_depth;
    p.peers = nodes_ - 1;
    spec.roles.push_back(std::move(p));
    OverlapRoleSpec red;
    red.name = "rail_reduce";
    red.kind = OverlapRoleKind::kNicRailReduce;
    red.want_sms = cfg_.reduce_sms;
    red.reads = {{"rail_staging"}, {ring ? "ring_out" : "gemm_out"}};
    red.writes = {{"out"}};
    red.block_rows = m_per_rank;
    red.chunk_rows = cfg_.rs_block_m;
    red.nic_chunk_blocks = cfg_.nic_chunk_blocks;
    spec.roles.push_back(std::move(red));
  }
  OverlapRoleSpec g;
  g.name = "gemm";
  g.kind = OverlapRoleKind::kCompute;
  g.reads = {{"a"}, {"b"}};
  g.writes = {{"gemm_out"}};
  g.work_items = gemm_tiles;
  spec.roles.push_back(std::move(g));
  return spec;
}

}  // namespace tilelink::tl
