#include "compute/gemm.h"

#include "common/math_utils.h"
#include "compute/tile_math.h"

namespace tilelink::compute {
namespace {

// One GEMM thread block: bills per-k-step MMA time, then performs the whole
// tile's math once (numerically identical, far fewer host ops). The operands
// live in the launch's block function, which outlives every block.
sim::Coro GemmBlockBody(rt::BlockCtx bctx, const Tensor& a, const Tensor& b,
                        Tensor& c, const GemmOptions& options,
                        int64_t tiles_n, int64_t num_tiles) {
  const sim::CostModel cost(bctx.dev->spec());
  const GemmTiling& t = options.tiling;
  const int64_t k = a.dim(1);
  const int64_t k_steps = CeilDiv<int64_t>(k, t.bk);
  // Persistent style: a block may process several output tiles.
  for (int64_t tile = bctx.block_id; tile < num_tiles; tile += bctx.grid) {
    const int64_t tid_m = tile / tiles_n;
    const int64_t tid_n = tile % tiles_n;
    co_await sim::Delay{cost.BlockPrologue()};
    for (int64_t s = 0; s < k_steps; ++s) {
      co_await sim::Delay{cost.GemmTileStep(t.bm, t.bn, t.bk)};
    }
    co_await sim::Delay{cost.BlockEpilogue()};
    if (bctx.functional()) {
      GemmTile(a, b, c, tid_m * t.bm, t.bm, tid_n * t.bn, t.bn, 0, k,
               options.accumulate);
    }
  }
}

}  // namespace

std::shared_ptr<rt::KernelState> LaunchGemm(rt::RankCtx& /*ctx*/,
                                            rt::Stream& stream,
                                            const Tensor& a, const Tensor& b,
                                            Tensor c,
                                            const GemmOptions& options) {
  TL_CHECK_EQ(a.dim(0), c.dim(0));
  TL_CHECK_EQ(a.dim(1), b.dim(0));
  TL_CHECK_EQ(b.dim(1), c.dim(1));
  const GemmTiling& t = options.tiling;
  const int64_t tiles_m = CeilDiv<int64_t>(c.dim(0), t.bm);
  const int64_t tiles_n = CeilDiv<int64_t>(c.dim(1), t.bn);
  const int64_t num_tiles = tiles_m * tiles_n;
  int grid = static_cast<int>(num_tiles);
  if (options.max_blocks > 0 && grid > options.max_blocks) {
    grid = options.max_blocks;
  }
  auto body = [a, b, c, options, tiles_n, num_tiles](
                  rt::BlockCtx bctx) mutable {
    return GemmBlockBody(bctx, a, b, c, options, tiles_n, num_tiles);
  };
  return stream.LaunchKernel(grid, std::move(body), options.name);
}

void GemmRef(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  GemmTile(a, b, c, 0, c.dim(0), 0, c.dim(1), 0, a.dim(1), accumulate);
}

sim::TimeNs AnalyticGemmTime(const sim::CostModel& cost, int64_t m, int64_t n,
                             int64_t k, const GemmTiling& tiling, int sms) {
  const int64_t tiles =
      CeilDiv(m, static_cast<int64_t>(tiling.bm)) *
      CeilDiv(n, static_cast<int64_t>(tiling.bn));
  const int64_t waves = CeilDiv(tiles, static_cast<int64_t>(sms));
  return waves *
         cost.GemmBlockTime(tiling.bm, tiling.bn, static_cast<int>(k),
                            tiling.bk);
}

}  // namespace tilelink::compute
