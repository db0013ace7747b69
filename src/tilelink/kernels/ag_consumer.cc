#include "tilelink/kernels/ag_consumer.h"

#include <algorithm>
#include <utility>

#include "common/math_utils.h"
#include "compute/tile_math.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

BlockProgram BuildAgGemmConsumer(const AgConsumerParams& p) {
  TileProgramBuilder b;
  auto fulls = p.a_full;
  auto weights = p.b;
  auto outs = p.c;
  auto waits_for_rows = p.waits_for_rows;
  const compute::GemmTiling tiling = p.tiling;
  const int64_t tiles_m = CeilDiv<int64_t>(p.m, tiling.bm);
  const int64_t tiles_n = CeilDiv<int64_t>(p.n, tiling.bn);
  const int64_t num_tiles = tiles_m * tiles_n;
  const int64_t k_steps = CeilDiv<int64_t>(p.k, tiling.bk);
  const int64_t m = p.m;
  const int64_t n = p.n;
  const int64_t k = p.k;
  const int R = p.ranks;
  const int64_t tiles_m_per_rank = tiles_m / R;
  const TileOrder order = p.order;
  auto tid_mn = [=](const Env& e) {
    const int64_t t = e.block_id + e.iv(0) * e.grid;
    const int64_t tm = SwizzleTileM(t / tiles_n, tiles_m, tiles_m_per_rank,
                                    e.rank, R, order);
    return std::pair<int64_t, int64_t>(tm, t % tiles_n);
  };
  b.For("t", [num_tiles](const Env& e) { return TilesForBlock(num_tiles, e); },
        [&](TileProgramBuilder& body) {
          body.Add(ops::ConsumerTileWait(
              "gemm.consumer_wait",
              [waits_for_rows, tid_mn, tiling, m](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                (void)tn;
                WaitSpec spec;
                spec.space = SignalSpace::kProducerConsumer;
                const int64_t lo = tm * tiling.bm;
                const int64_t hi = std::min<int64_t>(lo + tiling.bm, m);
                spec.waits = waits_for_rows(lo, hi);
                return spec;
              }));
          body.For("kk",
                   [k_steps](const Env&) { return k_steps; },
                   [&](TileProgramBuilder& inner) {
                     inner.Add(ops::Load(
                         "gemm.load_a", /*acquire=*/true,
                         [fulls, tid_mn, tiling, m](const Env& e) {
                           const auto [tm, tn] = tid_mn(e);
                           (void)tn;
                           const int64_t lo = tm * tiling.bm;
                           const int64_t len =
                               std::min<int64_t>(tiling.bm, m - lo);
                           const Tensor view =
                               fulls[static_cast<size_t>(e.rank)].Slice(
                                   0, lo, len);
                           DataSpec d;
                           view.BufferRange(&d.read_lo, &d.read_hi);
                           d.read_buf = view.buffer();
                           return d;
                         }));
                     inner.Add(ops::Mma(
                         "gemm.mma",
                         [tiling](const sim::CostModel& cost) {
                           return cost.GemmTileStep(tiling.bm, tiling.bn,
                                                    tiling.bk);
                         },
                         [fulls, weights, outs, tid_mn, tiling,
                          k](const Env& e) {
                           const auto [tm, tn] = tid_mn(e);
                           const int64_t k0 = e.iv(1) * tiling.bk;
                           Tensor out = outs[static_cast<size_t>(e.rank)];
                           compute::GemmTile(
                               fulls[static_cast<size_t>(e.rank)],
                               weights[static_cast<size_t>(e.rank)], out,
                               tm * tiling.bm, tiling.bm, tn * tiling.bn,
                               tiling.bn, k0,
                               std::min<int64_t>(tiling.bk, k - k0),
                               /*accumulate=*/e.iv(1) != 0);
                         }));
                   });
          body.Add(ops::Store(
              "gemm.store", [outs, tid_mn, tiling, m, n](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                const int64_t lo = tm * tiling.bm;
                const Tensor view =
                    outs[static_cast<size_t>(e.rank)]
                        .Slice(0, lo, std::min<int64_t>(tiling.bm, m - lo))
                        .Slice(1, tn * tiling.bn,
                               std::min<int64_t>(tiling.bn,
                                                 n - tn * tiling.bn));
                DataSpec d;
                view.BufferRange(&d.write_lo, &d.write_hi);
                d.write_buf = view.buffer();
                return d;
              }));
        });
  return b.Build();
}

}  // namespace tilelink::tl
