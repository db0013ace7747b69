#include "tilelink/kernels/gemm_producer.h"

#include <algorithm>
#include <utility>

#include "common/math_utils.h"
#include "compute/tile_math.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

int64_t PartialGemmTiles(const PartialGemmParams& params) {
  return CeilDiv<int64_t>(params.m, params.tiling.bm) *
         CeilDiv<int64_t>(params.n, params.tiling.bn);
}

BlockProgram BuildPartialGemmProducer(const PartialGemmParams& p) {
  TileProgramBuilder b;
  const StaticMapping map = p.map;
  auto as = p.a;
  auto bs = p.b;
  auto outs = p.out;
  const compute::GemmTiling tiling = p.tiling;
  const int64_t tiles_m = CeilDiv<int64_t>(p.m, tiling.bm);
  const int64_t tiles_n = CeilDiv<int64_t>(p.n, tiling.bn);
  const int64_t num_tiles = tiles_m * tiles_n;
  const int64_t k_steps = CeilDiv<int64_t>(p.k, tiling.bk);
  const int64_t k = p.k;
  const int64_t m = p.m;
  const int64_t n = p.n;
  const int R = p.ranks;
  const int64_t tiles_m_per_rank = tiles_m / R;
  // Tile order (§3.1): by default produce the segment the ring consumes
  // first — the segment right after this rank — then continue in ring order.
  const TileOrder order = p.order;
  auto tid_mn = [=](const Env& e) {
    const int64_t t = e.block_id + e.iv(0) * e.grid;
    const int64_t tm = SwizzleTileM(t / tiles_n, tiles_m, tiles_m_per_rank,
                                    e.rank, R, order);
    return std::pair<int64_t, int64_t>(tm, t % tiles_n);
  };
  b.For("t", [num_tiles](const Env& e) { return TilesForBlock(num_tiles, e); },
        [&](TileProgramBuilder& body) {
          body.For("kk", [k_steps](const Env&) { return k_steps; },
                   [&](TileProgramBuilder& inner) {
                     inner.Add(ops::Mma(
                         "gemm.mma",
                         [tiling](const Env&, const sim::CostModel& cost) {
                           return cost.GemmTileStep(tiling.bm, tiling.bn,
                                                    tiling.bk);
                         },
                         [as, bs, outs, tid_mn, tiling, k](const Env& e) {
                           const auto [tm, tn] = tid_mn(e);
                           const int64_t k0 = e.iv(1) * tiling.bk;
                           Tensor out = outs[static_cast<size_t>(e.rank)];
                           compute::GemmTile(
                               as[static_cast<size_t>(e.rank)],
                               bs[static_cast<size_t>(e.rank)], out,
                               tm * tiling.bm, tiling.bm, tn * tiling.bn,
                               tiling.bn, k0,
                               std::min<int64_t>(tiling.bk, k - k0),
                               /*accumulate=*/e.iv(1) != 0);
                         }));
                   });
          body.Add(ops::Store(
              "gemm.store", [outs, tid_mn, tiling, m, n](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                const Tensor view =
                    outs[static_cast<size_t>(e.rank)]
                        .Slice(0, tm * tiling.bm,
                               std::min<int64_t>(tiling.bm,
                                                 m - tm * tiling.bm))
                        .Slice(1, tn * tiling.bn,
                               std::min<int64_t>(tiling.bn,
                                                 n - tn * tiling.bn));
                DataSpec d;
                view.BufferRange(&d.write_lo, &d.write_hi);
                d.write_buf = view.buffer();
                return d;
              }));
          body.Add(ops::ProducerTileNotify(
              "gemm.notify(p2p)", [map, tid_mn](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                (void)tn;
                return NotifyOne(SignalSpace::kProducerConsumer, e.rank,
                                 map.Channel(tm));
              }));
        });
  return b.Build();
}

}  // namespace tilelink::tl
