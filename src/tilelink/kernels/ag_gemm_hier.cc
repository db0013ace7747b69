#include "tilelink/kernels/ag_gemm_hier.h"

#include <algorithm>

#include "common/math_utils.h"
#include "tensor/tensor_ops.h"
#include "tilelink/builder/comm_roles.h"
#include "tilelink/builder/link_roles.h"
#include "tilelink/kernels/ag_consumer.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

AgGemmHier::AgGemmHier(rt::World& world, const AgGemmHierConfig& config)
    : FusedKernelBase(world, config.name, config.compiler),
      cfg_(config),
      map_(config.m, config.comm_tile_m, world.size(),
           StaticMapping::ResolveChannelsPerRank(
               config.m, config.comm_tile_m, world.size(),
               config.channels_per_rank)) {
  const sim::MachineSpec& spec = world.spec();
  nodes_ = spec.num_nodes();
  per_node_ = spec.devices_per_node;
  TL_CHECK_EQ(cfg_.m % ranks(), 0);
  const int64_t m_per_rank = cfg_.m / ranks();
  TL_CHECK_EQ(m_per_rank % cfg_.comm_tile_m, 0);
  a_shards_ = AllocSymmetric("a_shard", {m_per_rank, cfg_.k});
  a_full_ = AllocSymmetric("a_full", {cfg_.m, cfg_.k});
  b_ = AllocSymmetric("b", {cfg_.k, cfg_.n});
  c_ = AllocSymmetric("c", {cfg_.m, cfg_.n});
  const int64_t gemm_tiles = CeilDiv<int64_t>(cfg_.m, cfg_.gemm.bm) *
                             CeilDiv<int64_t>(cfg_.n, cfg_.gemm.bn);

  if (nodes_ == 1) {
    // 1 x N: the hierarchical spec degenerates to the flat ag_gemm spec —
    // same mapping, same roles, same programs, makespan-identical.
    CreateChannels(map_.num_channels(), /*num_peer=*/1, /*num_host=*/1);
    overlap_spec_ = BuildFlatSpec(gemm_tiles);
    overlap_plan_ = OverlapPlanner(spec).Plan(overlap_spec_);
    Finalize(BuildFromPlan(overlap_plan_, sms(),
                           [this](const PlannedRole& role) {
                             return role.name == "comm" ? BuildFlatComm()
                                                        : BuildConsumer(1);
                           }));
    return;
  }

  TL_CHECK_MSG(cfg_.comm != CommResource::kSmPull,
               "ag_gemm_hier: pull mode cannot cross the NIC");
  const int64_t cpb = m_per_rank / cfg_.comm_tile_m;
  const int64_t rail_rows =
      static_cast<int64_t>(cfg_.nic_chunk_blocks) * cfg_.comm_tile_m;
  const int64_t cpb_rail = RailChunksPerBlock(m_per_rank, rail_rows);
  overlap_spec_ = BuildHierSpec(gemm_tiles, cpb, cpb_rail);
  overlap_plan_ = OverlapPlanner(spec).Plan(overlap_spec_);
  col_splits_ = overlap_plan_.At("ring").col_splits;
  rail_blocks_ = overlap_plan_.At("rail").want_sms;
  TL_CHECK_EQ(cfg_.k % col_splits_, 0);
  // Producer channels: one per (source rank, chunk, strip), incremented
  // exactly once — publish for own chunks, rail landing for same-local-
  // index blocks, ring forward for the rest.
  CreateChannels(ranks() * static_cast<int>(cpb * col_splits_),
                 /*num_peer=*/1, /*num_host=*/1);
  Finalize(BuildFromPlan(
      overlap_plan_, sms(), [&](const PlannedRole& role) {
        if (role.name == "ring") return BuildHierRing(col_splits_, cpb);
        if (role.name == "rail") {
          return BuildHierRail(col_splits_, cpb, cpb_rail, rail_rows);
        }
        return BuildConsumer(col_splits_);
      }));
}

// The flat declarative form — kept field-for-field identical to
// AgGemm::BuildOverlapSpec so the 1 x N degenerate is the same kernel.
OverlapSpec AgGemmHier::BuildFlatSpec(int64_t gemm_tiles) const {
  OverlapSpec spec;
  spec.kernel = cfg_.name;
  spec.spaces = {
      {"a_shard", map_.tiles_per_rank(), cfg_.comm_tile_m, /*resident=*/true},
      {"a_full", map_.num_tiles(), cfg_.comm_tile_m, /*resident=*/false},
      {"b", 1, cfg_.k, /*resident=*/true},
      {"c", gemm_tiles, cfg_.gemm.bm, /*resident=*/false},
  };
  OverlapRoleSpec comm;
  comm.name = "comm";
  comm.kind = OverlapRoleKind::kRowAllGather;
  comm.resource = cfg_.comm;
  comm.want_sms = cfg_.comm_sms;
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

// The hierarchical declarative form: a_shard feeds both the NVLink ring
// (publish + node-local forwarding, reading arrived blocks back out of
// a_full — a legal self-loop) and the NIC rail; the consumer reads the
// gathered activation.
OverlapSpec AgGemmHier::BuildHierSpec(int64_t gemm_tiles, int64_t cpb,
                                      int64_t cpb_rail) const {
  OverlapSpec spec;
  spec.kernel = cfg_.name;
  spec.spaces = {
      {"a_shard", cpb, cfg_.comm_tile_m, /*resident=*/true},
      {"a_full", static_cast<int64_t>(ranks()) * cpb, cfg_.comm_tile_m,
       /*resident=*/false},
      {"b", 1, cfg_.k, /*resident=*/true},
      {"c", gemm_tiles, cfg_.gemm.bm, /*resident=*/false},
  };
  OverlapRoleSpec ring;
  ring.name = "ring";
  ring.kind = OverlapRoleKind::kHierAgRing;
  ring.want_sms = cfg_.comm_sms;
  ring.reads = {{"a_shard"}, {"a_full"}};
  ring.writes = {{"a_full"}};
  ring.group_size = per_node_;
  ring.seg_blocks = nodes_;
  ring.block_rows = cfg_.m / ranks();
  ring.chunk_rows = cfg_.comm_tile_m;
  ring.cols = cfg_.k;  // the column split runs over the K width here
  ring.allow_col_split = true;
  OverlapRoleSpec rail;
  rail.name = "rail";
  rail.kind = OverlapRoleKind::kNicRailPush;
  rail.reads = {{"a_shard"}};
  rail.writes = {{"a_full"}};
  rail.block_rows = cfg_.m / ranks();
  rail.chunk_rows = cfg_.comm_tile_m;
  rail.nic_chunk_blocks = cfg_.nic_chunk_blocks;
  rail.staging_depth = cfg_.staging_depth;
  rail.peers = nodes_ - 1;
  OverlapRoleSpec gemm;
  gemm.name = "compute";
  gemm.kind = OverlapRoleKind::kCompute;
  gemm.reads = {{"a_full"}, {"b"}};
  gemm.writes = {{"c"}};
  gemm.work_items = gemm_tiles;
  spec.roles = {std::move(ring), std::move(rail), std::move(gemm)};
  (void)cpb_rail;
  return spec;
}

BlockProgram AgGemmHier::BuildFlatComm() {
  const RowAllGatherParams ag{map_, a_shards_, a_full_, ranks(),
                              cfg_.m / ranks()};
  return cfg_.comm == CommResource::kSmPull ? BuildRowAllGatherPull(ag)
                                            : BuildRowAllGatherPush(ag);
}

// NVLink ring role: for each (chunk, strip) work item, publish the rank's
// own strip into its gathered buffer, then run per_node - 1 forwarding
// stages x nodes node groups: wait for the stage's block strip to arrive
// locally, acquire-load it, and push it to the right neighbor within the
// node. Stage s forwards local index (l - s) mod per_node, so stage 0 moves
// the freshly published / rail-landed blocks and every later stage moves
// what the previous stage delivered — an AllGather ring per node group.
BlockProgram AgGemmHier::BuildHierRing(int S, int64_t cpb) {
  const int64_t m_per_rank = cfg_.m / ranks();
  const int64_t tile = cfg_.comm_tile_m;
  const int64_t k_strip = cfg_.k / S;
  const int nodes = nodes_;
  const int per_node = per_node_;
  auto shards = a_shards_;
  auto fulls = a_full_;
  const uint64_t strip_bytes = static_cast<uint64_t>(tile) * k_strip *
                               DTypeSize(shards[0].dtype());
  const int64_t items = cpb * S;

  auto item_of = [](const Env& e) {
    return static_cast<int64_t>(e.block_id) + e.iv(0) * e.grid;
  };
  auto chunk_of = [S, item_of](const Env& e) { return item_of(e) / S; };
  auto strip_of = [S, item_of](const Env& e) { return item_of(e) % S; };
  auto channel_of = [S](int64_t t, int64_t j) {
    return static_cast<int>(t * S + j);
  };
  // Strip view of `tile` rows at `row_lo`; S == 1 keeps the full width.
  auto view = [S, tile, k_strip](Tensor t, int64_t row_lo, int64_t j) {
    const Tensor rows = t.Slice(0, row_lo, tile);
    return S == 1 ? rows : rows.Slice(1, j * k_strip, k_strip);
  };
  // Global block forwarded at (stage, node group) — local index (l - s)
  // mod per_node of node group pn.
  auto block_of = [per_node](const Env& e) {
    const int64_t l = e.rank % per_node;
    const int64_t seg = ((l - e.iv(1)) % per_node + per_node) % per_node;
    return e.iv(2) * per_node + seg;
  };
  auto right_of = [per_node](const Env& e) {
    return static_cast<int>((e.rank / per_node) * per_node +
                            (e.rank % per_node + 1) % per_node);
  };

  TileProgramBuilder b;
  b.For("item", [items](const Env& e) { return TilesForBlock(items, e); },
        [&](TileProgramBuilder& cb) {
          // --- local publish -------------------------------------------
          cb.Add(ops::TilePushData(
              "hier_ag.publish",
              [=](const Env& e) {
                const int64_t c = chunk_of(e), j = strip_of(e);
                DataSpec d;
                d.src_rank = e.rank;
                d.dst_rank = e.rank;
                d.bytes = strip_bytes;
                const Tensor src =
                    view(shards[static_cast<size_t>(e.rank)], c * tile, j);
                const Tensor dst =
                    view(fulls[static_cast<size_t>(e.rank)],
                         e.rank * m_per_rank + c * tile, j);
                SetReadView(d, src);
                SetWriteView(d, dst);
                return d;
              },
              [=](const Env& e) {
                return NotifyOne(
                    SignalSpace::kProducerConsumer, e.rank,
                    channel_of(e.rank * cpb + chunk_of(e), strip_of(e)));
              },
              /*async_dma=*/false,
              [=](const Env& e) {
                const int64_t c = chunk_of(e), j = strip_of(e);
                const Tensor src =
                    view(shards[static_cast<size_t>(e.rank)], c * tile, j);
                Tensor dst = view(fulls[static_cast<size_t>(e.rank)],
                                  e.rank * m_per_rank + c * tile, j);
                CopyTensor(src, dst);
              }));
          // --- forwarding stages ---------------------------------------
          cb.For("stage",
                 [per_node](const Env&) {
                   return static_cast<int64_t>(per_node - 1);
                 },
                 [&](TileProgramBuilder& sb) {
                   sb.For("pn",
                          [nodes](const Env&) {
                            return static_cast<int64_t>(nodes);
                          },
                          [&](TileProgramBuilder& pb) {
                            pb.Add(ops::ConsumerTileWait(
                                "hier_ag.fwd_wait", [=](const Env& e) {
                                  WaitSpec w;
                                  w.space = SignalSpace::kProducerConsumer;
                                  w.waits.push_back(ChannelWait{
                                      channel_of(block_of(e) * cpb +
                                                     chunk_of(e),
                                                 strip_of(e)),
                                      1});
                                  return w;
                                }));
                            pb.Add(ops::Load(
                                "hier_ag.fwd_load", /*acquire=*/true,
                                [=](const Env& e) {
                                  const Tensor v = view(
                                      fulls[static_cast<size_t>(e.rank)],
                                      block_of(e) * m_per_rank +
                                          chunk_of(e) * tile,
                                      strip_of(e));
                                  DataSpec d;
                                  SetReadView(d, v);
                                  return d;
                                }));
                            pb.Add(ops::TilePushData(
                                "hier_ag.fwd_push",
                                [=](const Env& e) {
                                  const int dst = right_of(e);
                                  const int64_t row =
                                      block_of(e) * m_per_rank +
                                      chunk_of(e) * tile;
                                  DataSpec d;
                                  d.src_rank = e.rank;
                                  d.dst_rank = dst;
                                  d.bytes = strip_bytes;
                                  const Tensor src = view(
                                      fulls[static_cast<size_t>(e.rank)],
                                      row, strip_of(e));
                                  const Tensor dstv = view(
                                      fulls[static_cast<size_t>(dst)], row,
                                      strip_of(e));
                                  SetReadView(d, src);
                                  SetWriteView(d, dstv);
                                  return d;
                                },
                                [=](const Env& e) {
                                  return NotifyOne(
                                      SignalSpace::kProducerConsumer,
                                      right_of(e),
                                      channel_of(block_of(e) * cpb +
                                                     chunk_of(e),
                                                 strip_of(e)));
                                },
                                /*async_dma=*/false,
                                [=](const Env& e) {
                                  const int dst = right_of(e);
                                  const int64_t row =
                                      block_of(e) * m_per_rank +
                                      chunk_of(e) * tile;
                                  const Tensor src = view(
                                      fulls[static_cast<size_t>(e.rank)],
                                      row, strip_of(e));
                                  Tensor dstv = view(
                                      fulls[static_cast<size_t>(dst)], row,
                                      strip_of(e));
                                  CopyTensor(src, dstv);
                                }));
                          });
                 });
        });
  return b.Build();
}

// NIC rail role: push the rank's own shard straight to the rail peer with
// the same local index on each other node — no staging hop, the landing
// writes the peer's gathered buffer and raises the same producer channels
// the ring forward and the consumer gate on (every strip of every covered
// chunk at once; the message moves the full K width).
BlockProgram AgGemmHier::BuildHierRail(int S, int64_t cpb, int64_t cpb_rail,
                                       int64_t rail_rows) {
  const int64_t m_per_rank = cfg_.m / ranks();
  const int64_t tile = cfg_.comm_tile_m;
  const int ncb = cfg_.nic_chunk_blocks;
  const int per_node = per_node_;
  auto shards = a_shards_;
  auto fulls = a_full_;
  const uint64_t row_bytes =
      static_cast<uint64_t>(cfg_.k) * DTypeSize(shards[0].dtype());
  const int64_t items = static_cast<int64_t>(nodes_ - 1) * cpb_rail;

  auto item_of = [](const Env& e) {
    return static_cast<int64_t>(e.block_id) + e.iv(0) * e.grid;
  };
  auto peer_of = [cpb_rail, per_node](const Env& e, int64_t item) {
    const int my_node = e.rank / per_node;
    const int peer_node =
        RailSourceNode(static_cast<int>(item / cpb_rail), my_node);
    return peer_node * per_node + e.rank % per_node;
  };
  auto rows_of = [cpb_rail, rail_rows, m_per_rank](int64_t item) {
    const int64_t lo = (item % cpb_rail) * rail_rows;
    return TileRange{lo, std::min<int64_t>(m_per_rank, lo + rail_rows)};
  };

  TileProgramBuilder b;
  b.For("item", [items](const Env& e) { return TilesForBlock(items, e); },
        [&](TileProgramBuilder& cb) {
          cb.Add(ops::TilePushData(
              "hier_ag.rail_push",
              [=](const Env& e) {
                const int64_t item = item_of(e);
                const int dst = peer_of(e, item);
                const TileRange rows = rows_of(item);
                DataSpec d;
                d.src_rank = e.rank;
                d.dst_rank = dst;
                d.bytes = static_cast<uint64_t>(rows.len()) * row_bytes;
                const Tensor src =
                    shards[static_cast<size_t>(e.rank)].Slice(0, rows.lo,
                                                              rows.len());
                const Tensor dstv =
                    fulls[static_cast<size_t>(dst)].Slice(
                        0, e.rank * m_per_rank + rows.lo, rows.len());
                SetReadView(d, src);
                SetWriteView(d, dstv);
                return d;
              },
              [=](const Env& e) {
                const int64_t item = item_of(e);
                const int dst = peer_of(e, item);
                const int64_t cr = item % cpb_rail;
                NotifySpec spec;
                const int64_t rc_hi =
                    std::min<int64_t>(cpb, (cr + 1) * ncb);
                for (int64_t rc = cr * ncb; rc < rc_hi; ++rc) {
                  for (int64_t j = 0; j < S; ++j) {
                    spec.entries.push_back(NotifyEntry{
                        SignalSpace::kProducerConsumer,
                        dst,
                        static_cast<int>((e.rank * cpb + rc) * S + j),
                        1});
                  }
                }
                return spec;
              },
              /*async_dma=*/false,
              [=](const Env& e) {
                const int64_t item = item_of(e);
                const int dst = peer_of(e, item);
                const TileRange rows = rows_of(item);
                const Tensor src =
                    shards[static_cast<size_t>(e.rank)].Slice(0, rows.lo,
                                                              rows.len());
                Tensor dstv = fulls[static_cast<size_t>(dst)].Slice(
                    0, e.rank * m_per_rank + rows.lo, rows.len());
                CopyTensor(src, dstv);
              }));
          (void)tile;
        });
  return b.Build();
}

// Compute role: the shared AG+GEMM consumer. Single-node the producer
// channels are the flat static mapping's; multi-node each gathered row
// tile t owns channels t*S .. t*S+S-1, one increment each.
BlockProgram AgGemmHier::BuildConsumer(int S) {
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
  if (nodes_ == 1) {
    const StaticMapping map = map_;
    p.waits_for_rows = [map](int64_t lo, int64_t hi) {
      return map.WaitsForRows(lo, hi);
    };
  } else {
    const int64_t tile = cfg_.comm_tile_m;
    p.waits_for_rows = [S, tile](int64_t lo, int64_t hi) {
      WaitList waits;
      for (int64_t t = lo / tile; t < CeilDiv<int64_t>(hi, tile); ++t) {
        for (int j = 0; j < S; ++j) {
          waits.push_back(
              ChannelWait{static_cast<int>(t * S + j), 1});
        }
      }
      return waits;
    };
  }
  return BuildAgGemmConsumer(p);
}

std::optional<sim::Coro> AgGemmHier::HostComm(rt::RankCtx& ctx) {
  if (nodes_ > 1 || cfg_.comm != CommResource::kDma) return std::nullopt;
  return DmaRowAllGather(
      ctx, channel(ctx.rank),
      RowAllGatherParams{map_, a_shards_, a_full_, ranks(), cfg_.m / ranks()});
}

}  // namespace tilelink::tl
