#include "tilelink/kernels/ring_rs.h"

#include <algorithm>

#include "common/math_utils.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

namespace {

int RingGroup(const RingRsParams& p) {
  return p.group_size > 0 ? p.group_size : p.world_size;
}

// Rows of one global destination block.
int64_t RingBlockRows(const RingRsParams& p) {
  const int64_t denom =
      static_cast<int64_t>(RingGroup(p)) * static_cast<int64_t>(p.seg_blocks);
  return p.m / denom;
}

int RingColSplits(const RingRsParams& p) { return std::max(1, p.col_splits); }

}  // namespace

int64_t RingRsChunks(const RingRsParams& params) {
  return static_cast<int64_t>(params.seg_blocks) *
         CeilDiv<int64_t>(RingBlockRows(params), params.block_m) *
         RingColSplits(params);
}

BlockProgram BuildRingReduceScatter(const RingRsParams& p) {
  TL_CHECK_GT(p.world_size, 0);
  TL_CHECK_GT(p.seg_blocks, 0);
  const int G = RingGroup(p);
  TL_CHECK_EQ(p.m % (static_cast<int64_t>(G) * p.seg_blocks), 0);
  const int64_t m_blk = RingBlockRows(p);
  TL_CHECK_EQ(m_blk % p.block_m, 0);
  const int64_t cpb = CeilDiv<int64_t>(m_blk, p.block_m);
  const int S = RingColSplits(p);
  TL_CHECK_EQ(p.n % S, 0);
  const int64_t n_strip = p.n / S;
  const int64_t chunks = RingRsChunks(p);
  const int64_t block_m = p.block_m;
  const DType dtype = p.dtype;
  auto partials = p.partials;
  auto staging = p.staging;
  auto outs = p.outs;
  auto wait_for_rows = p.wait_for_rows;
  auto final_notify = p.final_notify;
  const bool dma_push = p.dma_push;

  // Chunk owned by this block at iteration iv(0). With col_splits > 1 a
  // chunk id c addresses row chunk c / S, column strip c % S.
  auto chunk_of = [chunks](const Env& e) {
    return static_cast<int64_t>(e.block_id) + e.iv(0) * e.grid;
  };
  auto row_chunk_of = [S](int64_t chunk) { return chunk / S; };
  // First column of the chunk's strip.
  auto col_lo = [S, n_strip](int64_t chunk) { return (chunk % S) * n_strip; };
  // Column-strip view; S == 1 keeps the original view (byte-identical
  // schedule for the row-wise ring).
  auto strip = [S, n_strip, col_lo](Tensor t, int64_t chunk) {
    return S == 1 ? t : t.Slice(1, col_lo(chunk), n_strip);
  };
  // Segment processed at ring stage s (Figure 4 line 15), local to the
  // rank's ring group.
  auto seg_at = [G](const Env& e, int64_t stage) {
    return (e.rank % G + stage + 1) % G;
  };
  // Global rows of (segment, row chunk): chunk c of block b within the
  // segment addresses global destination block b * G + seg.
  auto rows_of = [G, m_blk, block_m, cpb, row_chunk_of](int64_t seg,
                                                        int64_t chunk) {
    const int64_t rc = row_chunk_of(chunk);
    const int64_t b = rc / cpb, c = rc % cpb;
    return (b * G + seg) * m_blk + c * block_m;
  };
  // Global peer-channel id for (segment, chunk).
  auto peer_channel = [chunks](int64_t seg, int64_t chunk) {
    return static_cast<int>(seg * chunks + chunk);
  };
  // to_rank = left neighbor within the ring group.
  auto to_rank = [G](const Env& e) {
    return (e.rank / G) * G + (e.rank % G + G - 1) % G;
  };

  TileProgramBuilder b;
  b.For("chunk", [chunks](const Env& e) { return TilesForBlock(chunks, e); },
        [&](TileProgramBuilder& cb) {
          // --- push stages 0 .. G-2 -------------------------------------
          cb.For("stage",
                 [G](const Env&) { return static_cast<int64_t>(G - 1); },
                 [&](TileProgramBuilder& sb) {
                   auto stage_of = [](const Env& e) { return e.iv(1); };
                   sb.Add(ops::ConsumerTileWait(
                       "rs.consumer_wait",
                       [=](const Env& e) {
                         const int64_t lo =
                             rows_of(seg_at(e, stage_of(e)), chunk_of(e));
                         return wait_for_rows(lo, lo + block_m);
                       }));
                   sb.Add(ops::Load(
                       "rs.load_partial", /*acquire=*/true,
                       [=](const Env& e) {
                         const int64_t lo =
                             rows_of(seg_at(e, stage_of(e)), chunk_of(e));
                         const Tensor view = strip(
                             partials[static_cast<size_t>(e.rank)].Slice(
                                 0, lo, block_m),
                             chunk_of(e));
                         DataSpec d;
                         SetReadView(d, view);
                         return d;
                       }));
                   sb.Add(ops::PeerTileWait(
                       "rs.peer_wait", [=](const Env& e) {
                         WaitSpec spec;
                         spec.space = SignalSpace::kPeer;
                         if (stage_of(e) > 0) {
                           spec.waits.push_back(ChannelWait{
                               peer_channel(seg_at(e, stage_of(e)),
                                            chunk_of(e)),
                               1});
                         }
                         return spec;
                       }));
                   // Billed SM time of the local reduction for this chunk.
                   sb.Add(ops::Elementwise(
                       "rs.reduce",
                       [=](const Env& e, const sim::CostModel& cost) {
                         const uint64_t bytes =
                             3ULL * static_cast<uint64_t>(block_m) * n_strip *
                             DTypeSize(dtype);
                         return cost.MemoryBound(bytes, e.grid);
                       }));
                   sb.Add(ops::TilePushData(
                       "rs.push",
                       [=](const Env& e) {
                         const int64_t lo =
                             rows_of(seg_at(e, stage_of(e)), chunk_of(e));
                         const int to = to_rank(e);
                         DataSpec d;
                         d.src_rank = e.rank;
                         d.dst_rank = to;
                         d.bytes = static_cast<uint64_t>(block_m) * n_strip *
                                   DTypeSize(dtype);
                         const Tensor src_view = strip(
                             partials[static_cast<size_t>(e.rank)].Slice(
                                 0, lo, block_m),
                             chunk_of(e));
                         const Tensor dst_view = strip(
                             staging[static_cast<size_t>(to)].Slice(0, lo,
                                                                    block_m),
                             chunk_of(e));
                         SetReadView(d, src_view);
                         SetWriteView(d, dst_view);
                         return d;
                       },
                       // peer_tile_notify with release semantics once the
                       // accumulated chunk has landed at the neighbor.
                       [=](const Env& e) {
                         return NotifyOne(
                             SignalSpace::kPeer, to_rank(e),
                             peer_channel(seg_at(e, stage_of(e)),
                                          chunk_of(e)));
                       },
                       dma_push,
                       [=](const Env& e) {
                         const int64_t lo =
                             rows_of(seg_at(e, stage_of(e)), chunk_of(e));
                         const int64_t cl = col_lo(chunk_of(e));
                         const int to = to_rank(e);
                         const Tensor mine =
                             partials[static_cast<size_t>(e.rank)];
                         const Tensor acc =
                             staging[static_cast<size_t>(e.rank)];
                         Tensor dst = staging[static_cast<size_t>(to)];
                         const bool first = stage_of(e) == 0;
                         for (int64_t i = 0; i < block_m; ++i) {
                           for (int64_t c = cl; c < cl + n_strip; ++c) {
                             float v = mine.at({lo + i, c});
                             if (!first) v += acc.at({lo + i, c});
                             dst.at({lo + i, c}) = v;
                           }
                         }
                       }));
                 });
          // --- final stage: my own segment ------------------------------
          cb.Add(ops::ConsumerTileWait("rs.consumer_wait(final)",
                                       [=](const Env& e) {
                                         const int64_t lo = rows_of(
                                             e.rank % G, chunk_of(e));
                                         return wait_for_rows(lo,
                                                              lo + block_m);
                                       }));
          cb.Add(ops::Load("rs.load_partial(final)", /*acquire=*/true,
                           [=](const Env& e) {
                             const int64_t lo =
                                 rows_of(e.rank % G, chunk_of(e));
                             const Tensor view = strip(
                                 partials[static_cast<size_t>(e.rank)].Slice(
                                     0, lo, block_m),
                                 chunk_of(e));
                             DataSpec d;
                             SetReadView(d, view);
                             return d;
                           }));
          cb.Add(ops::PeerTileWait("rs.peer_wait(final)", [=](const Env& e) {
            WaitSpec spec;
            spec.space = SignalSpace::kPeer;
            if (G > 1) {
              spec.waits.push_back(ChannelWait{
                  peer_channel(e.rank % G, chunk_of(e)), 1});
            }
            return spec;
          }));
          cb.Add(ops::Elementwise(
              "rs.reduce(final)",
              [=](const Env& e, const sim::CostModel& cost) {
                const uint64_t bytes = 3ULL * static_cast<uint64_t>(block_m) *
                                       n_strip * DTypeSize(dtype);
                return cost.MemoryBound(bytes, e.grid);
              }));
          cb.Add(ops::Store(
              "rs.store_out",
              [=](const Env& e) {
                const int64_t local_lo = row_chunk_of(chunk_of(e)) * block_m;
                const Tensor view = strip(
                    outs[static_cast<size_t>(e.rank)].Slice(0, local_lo,
                                                            block_m),
                    chunk_of(e));
                DataSpec d;
                SetWriteView(d, view);
                return d;
              },
              [=](const Env& e) {
                const int64_t lo = rows_of(e.rank % G, chunk_of(e));
                const int64_t local_lo = row_chunk_of(chunk_of(e)) * block_m;
                const int64_t cl = col_lo(chunk_of(e));
                const Tensor mine = partials[static_cast<size_t>(e.rank)];
                const Tensor acc = staging[static_cast<size_t>(e.rank)];
                Tensor out = outs[static_cast<size_t>(e.rank)];
                for (int64_t i = 0; i < block_m; ++i) {
                  for (int64_t c = cl; c < cl + n_strip; ++c) {
                    float v = mine.at({lo + i, c});
                    if (G > 1) v += acc.at({lo + i, c});
                    out.at({local_lo + i, c}) = v;
                  }
                }
              }));
          if (final_notify) {
            // Release the group-reduced chunk to the downstream role.
            cb.Add(ops::PeerTileNotify(
                "rs.notify(final)", [=](const Env& e) {
                  return final_notify(e, chunk_of(e));
                }));
          }
        });
  return b.Build();
}

}  // namespace tilelink::tl
