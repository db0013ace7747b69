#include "tilelink/builder/comm_roles.h"

#include "sim/coro_utils.h"
#include "tensor/tensor_ops.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

BlockProgram BuildRowAllGatherPull(const RowAllGatherParams& params) {
  TileProgramBuilder b;
  const StaticMapping map = params.map;
  auto shards = params.shards;
  auto fulls = params.fulls;
  const int64_t m_per_rank = params.m_per_rank;
  const int64_t num_tiles = map.num_tiles();
  const int64_t tiles_per_rank = map.tiles_per_rank();
  b.For("t", [num_tiles](const Env& e) { return TilesForBlock(num_tiles, e); },
        [&](TileProgramBuilder& body) {
          // Ring tile order (§3.1): every rank starts pulling at its own
          // shard and walks the ring, so concurrent pulls spread across all
          // source ports instead of stampeding the same one.
          auto tile_of = [num_tiles, tiles_per_rank](const Env& e) {
            return (static_cast<int64_t>(e.block_id) + e.iv(0) * e.grid +
                    e.rank * tiles_per_rank) %
                   num_tiles;
          };
          body.Add(ops::TilePullData(
              "ag.pull",
              [map, shards, fulls, m_per_rank, tile_of](const Env& e) {
                const int64_t t = tile_of(e);
                const TileRange rows = map.ShapeRange(t);
                const int src = map.Rank(t);
                DataSpec d;
                d.src_rank = src;
                d.dst_rank = e.rank;
                d.bytes = static_cast<uint64_t>(rows.len()) *
                          shards[0].dim(1) * DTypeSize(shards[0].dtype());
                const Tensor src_view = shards[static_cast<size_t>(src)].Slice(
                    0, rows.lo - src * m_per_rank, rows.len());
                const Tensor dst_view =
                    fulls[static_cast<size_t>(e.rank)].Slice(0, rows.lo,
                                                             rows.len());
                src_view.BufferRange(&d.read_lo, &d.read_hi);
                d.read_buf = src_view.buffer();
                dst_view.BufferRange(&d.write_lo, &d.write_hi);
                d.write_buf = dst_view.buffer();
                return d;
              },
              [map, shards, fulls, m_per_rank, tile_of](const Env& e) {
                const int64_t t = tile_of(e);
                const TileRange rows = map.ShapeRange(t);
                const int src = map.Rank(t);
                const Tensor src_view = shards[static_cast<size_t>(src)].Slice(
                    0, rows.lo - src * m_per_rank, rows.len());
                Tensor dst_view = fulls[static_cast<size_t>(e.rank)].Slice(
                    0, rows.lo, rows.len());
                CopyTensor(src_view, dst_view);
              }));
          body.Add(ops::ProducerTileNotify(
              "ag.notify(p2p)", [map, tile_of](const Env& e) {
                // Pull mode: the local consumer.
                return NotifyOne(SignalSpace::kProducerConsumer, e.rank,
                                 map.Channel(tile_of(e)));
              }));
        });
  return b.Build();
}

BlockProgram BuildRowAllGatherPush(const RowAllGatherParams& params) {
  TileProgramBuilder b;
  const StaticMapping map = params.map;
  auto shards = params.shards;
  auto fulls = params.fulls;
  const int R = params.ranks;
  const int64_t m_per_rank = params.m_per_rank;
  const int64_t tiles_per_rank = map.tiles_per_rank();
  b.For("t",
        [tiles_per_rank](const Env& e) {
          return TilesForBlock(tiles_per_rank, e);
        },
        [&](TileProgramBuilder& body) {
          auto tile_of = [tiles_per_rank](const Env& e) {
            // Global tile id of this rank's local tile.
            return static_cast<int64_t>(e.rank) * tiles_per_rank +
                   e.block_id + e.iv(0) * e.grid;
          };
          body.For("p", [R](const Env&) { return static_cast<int64_t>(R); },
                   [&](TileProgramBuilder& inner) {
                     auto target_of = [R](const Env& e) {
                       // Ring offset: start with my right neighbor.
                       return static_cast<int>((e.rank + 1 + e.iv(1)) % R);
                     };
                     inner.Add(ops::TilePushData(
                         "ag.push",
                         [map, shards, fulls, m_per_rank, tile_of,
                          target_of](const Env& e) {
                           const int64_t t = tile_of(e);
                           const TileRange rows = map.ShapeRange(t);
                           const int dst = target_of(e);
                           DataSpec d;
                           d.src_rank = e.rank;
                           d.dst_rank = dst;
                           d.bytes = static_cast<uint64_t>(rows.len()) *
                                     shards[0].dim(1) *
                                     DTypeSize(shards[0].dtype());
                           const Tensor src_view =
                               shards[static_cast<size_t>(e.rank)].Slice(
                                   0, rows.lo - e.rank * m_per_rank,
                                   rows.len());
                           const Tensor dst_view =
                               fulls[static_cast<size_t>(dst)].Slice(
                                   0, rows.lo, rows.len());
                           src_view.BufferRange(&d.read_lo, &d.read_hi);
                           d.read_buf = src_view.buffer();
                           dst_view.BufferRange(&d.write_lo, &d.write_hi);
                           d.write_buf = dst_view.buffer();
                           return d;
                         },
                         /*notify_after=*/nullptr, /*async_dma=*/false,
                         [map, shards, fulls, m_per_rank, tile_of,
                          target_of](const Env& e) {
                           const int64_t t = tile_of(e);
                           const TileRange rows = map.ShapeRange(t);
                           const int dst = target_of(e);
                           const Tensor src_view =
                               shards[static_cast<size_t>(e.rank)].Slice(
                                   0, rows.lo - e.rank * m_per_rank,
                                   rows.len());
                           Tensor dst_view =
                               fulls[static_cast<size_t>(dst)].Slice(
                                   0, rows.lo, rows.len());
                           CopyTensor(src_view, dst_view);
                         }));
                     inner.Add(ops::ProducerTileNotify(
                         "ag.notify(p2p)",
                         [map, tile_of, target_of](const Env& e) {
                           return NotifyOne(SignalSpace::kProducerConsumer,
                                            target_of(e),
                                            map.Channel(tile_of(e)));
                         }));
                   });
        });
  return b.Build();
}

namespace {

sim::Coro CopyAndNotify(rt::RankCtx& ctx, Tensor src, Tensor dst,
                        BlockChannel bc, int channel, uint64_t inc) {
  co_await RankCopyData(ctx, src, dst);
  // Host-side release: the DMA completed before this notify issues.
  bc.set(SignalSpace::kProducerConsumer, ctx.rank)
      ->AddFrom(ctx.rank, channel, inc);
}

}  // namespace

sim::Coro DmaRowAllGather(rt::RankCtx& ctx, BlockChannel bc,
                          RowAllGatherParams params) {
  const int R = params.ranks;
  const int64_t m_per_rank = params.m_per_rank;
  std::vector<sim::Coro> copies;
  // Ring order: own shard first (cheap local copy), then increasing
  // distance, one copy per channel chunk so notifications are fine-grained.
  for (int s = 0; s < R; ++s) {
    const int src = (ctx.rank + s) % R;
    for (int c = 0; c < params.map.channels_per_rank(); ++c) {
      const int channel = src * params.map.channels_per_rank() + c;
      const TileRange rows = params.map.ChannelRows(channel);
      if (rows.len() <= 0) continue;
      Tensor src_view = params.shards[static_cast<size_t>(src)].Slice(
          0, rows.lo - src * m_per_rank, rows.len());
      Tensor dst_view = params.fulls[static_cast<size_t>(ctx.rank)].Slice(
          0, rows.lo, rows.len());
      copies.push_back(CopyAndNotify(ctx, src_view, dst_view, bc, channel,
                                     params.map.TilesInChannel(channel)));
    }
  }
  co_await sim::WhenAll(std::move(copies));
}

}  // namespace tilelink::tl
