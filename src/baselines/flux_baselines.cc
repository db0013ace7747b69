#include "baselines/flux_baselines.h"

#include <algorithm>
#include <utility>

#include "common/math_utils.h"
#include "compute/tile_math.h"
#include "tensor/tensor_ops.h"
#include "tilelink/mapping.h"
#include "tilelink/primitives.h"

namespace tilelink::baselines {
namespace {

using tl::BlockChannel;
using tl::ChannelWait;
using tl::Compiler;
using tl::DataSpec;
using tl::Env;
using tl::FusedKernelSpec;
using tl::NotifyEntry;
using tl::NotifySpec;
using tl::Role;
using tl::SignalSpace;
using tl::StaticMapping;
using tl::TileProgramBuilder;
using tl::TileRange;
using tl::WaitSpec;

int64_t TilesForBlock(int64_t total, const Env& env) {
  if (env.block_id >= total) return 0;
  return (total - env.block_id - 1) / env.grid + 1;
}

// FLUX's swizzled tile order, shared by both kernels: tile t = block_id +
// iv(0) * grid of a rank's enumeration maps to (m-tile, n-tile), with the
// m-tiles rotated so the rank's own rows come first. At every step the ranks
// then work on different row blocks, so their pulls (AG+GEMM) and atomic
// pushes (GEMM+RS) spread over different peers instead of all converging on
// one.
struct TileOrder {
  int64_t tiles_m;
  int64_t tiles_n;
  int64_t tiles_m_per_rank;
  std::pair<int64_t, int64_t> operator()(const Env& e) const {
    const int64_t t = e.block_id + e.iv(0) * e.grid;
    const int64_t tm = (t / tiles_n + e.rank * tiles_m_per_rank) % tiles_m;
    return {tm, t % tiles_n};
  }
};

sim::Coro AwaitKernel(std::shared_ptr<rt::KernelState> state) {
  co_await state->Wait();
}

}  // namespace

// ---------------------------------------------------------------------- //
// FluxAgGemm: coupled pull-inside-GEMM fusion.
// ---------------------------------------------------------------------- //

FluxAgGemm::FluxAgGemm(rt::World& world, const FluxConfig& config)
    : world_(&world), cfg_(config) {
  const int R = world.size();
  TL_CHECK_EQ(cfg_.m % R, 0);
  const int64_t m_per = cfg_.m / R;
  for (int r = 0; r < R; ++r) {
    rt::Device& dev = world.device(r);
    a_shards_.push_back(Tensor::Alloc(dev, "flux_ag.a_shard",
                                      {m_per, cfg_.k}, DType::kBF16));
    a_full_.push_back(
        Tensor::Alloc(dev, "flux_ag.a_full", {cfg_.m, cfg_.k}, DType::kBF16));
    b_.push_back(
        Tensor::Alloc(dev, "flux_ag.b", {cfg_.k, cfg_.n}, DType::kBF16));
    c_.push_back(
        Tensor::Alloc(dev, "flux_ag.c", {cfg_.m, cfg_.n}, DType::kBF16));
  }
  // Coupled: comm tile == GEMM m-tile; one channel per m-tile.
  const StaticMapping map(cfg_.m, cfg_.gemm.bm, R,
                          static_cast<int>(m_per / cfg_.gemm.bm));
  bcs_ = BlockChannel::CreateSymmetric(world, "flux_ag", map.num_channels(),
                                       1, 1);
  const compute::GemmTiling tiling = cfg_.gemm;
  const int64_t tiles_m = CeilDiv<int64_t>(cfg_.m, tiling.bm);
  const int64_t tiles_n = CeilDiv<int64_t>(cfg_.n, tiling.bn);
  const int64_t num_tiles = tiles_m * tiles_n;
  const int64_t k_steps = CeilDiv<int64_t>(cfg_.k, tiling.bk);
  const int64_t k = cfg_.k;
  auto shards = a_shards_;
  auto fulls = a_full_;
  auto weights = b_;
  auto outs = c_;
  // Local rows go first; pulls are issued as blocks reach their tiles, so
  // transfers stagger and complete progressively (cp.async pipelining).
  const TileOrder tid_mn{tiles_m, tiles_n, tiles_m / R};
  TileProgramBuilder b;
  b.For("t", [num_tiles](const Env& e) { return TilesForBlock(num_tiles, e); },
        [&](TileProgramBuilder& body) {
          // The tn==0 block of each m-tile pulls the rows inline; others
          // find the data in L2 (zero-byte probe) and wait on the barrier.
          body.Add(tl::ops::TilePullData(
              "flux.inline_pull",
              [map, shards, fulls, m_per, tid_mn, tiling](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                DataSpec d;
                d.src_rank = e.rank;
                d.dst_rank = e.rank;
                d.bytes = 0;
                if (tn == 0) {
                  const int src = map.Rank(tm);
                  d.src_rank = src;
                  d.bytes = static_cast<uint64_t>(tiling.bm) *
                            shards[0].dim(1) * DTypeSize(shards[0].dtype());
                  const Tensor src_view =
                      shards[static_cast<size_t>(src)].Slice(
                          0, tm * tiling.bm - src * m_per, tiling.bm);
                  const Tensor dst_view =
                      fulls[static_cast<size_t>(e.rank)].Slice(
                          0, tm * tiling.bm, tiling.bm);
                  src_view.BufferRange(&d.read_lo, &d.read_hi);
                  d.read_buf = src_view.buffer();
                  dst_view.BufferRange(&d.write_lo, &d.write_hi);
                  d.write_buf = dst_view.buffer();
                }
                return d;
              },
              [map, shards, fulls, m_per, tid_mn, tiling](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                if (tn != 0) return;
                const int src = map.Rank(tm);
                const Tensor src_view = shards[static_cast<size_t>(src)].Slice(
                    0, tm * tiling.bm - src * m_per, tiling.bm);
                Tensor dst_view = fulls[static_cast<size_t>(e.rank)].Slice(
                    0, tm * tiling.bm, tiling.bm);
                CopyTensor(src_view, dst_view);
              }));
          body.Add(tl::ops::ProducerTileNotify(
              "flux.notify", [map, tid_mn](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                NotifySpec spec;
                if (tn == 0) {
                  spec.entries.push_back(
                      NotifyEntry{SignalSpace::kProducerConsumer,
                                  e.rank,
                                  map.Channel(tm),
                                  1});
                }
                return spec;
              }));
          body.Add(tl::ops::ConsumerTileWait(
              "flux.wait", [map, tid_mn](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                (void)tn;
                WaitSpec spec;
                spec.space = SignalSpace::kProducerConsumer;
                spec.waits.push_back(ChannelWait{map.Channel(tm), 1});
                return spec;
              }));
          body.For("kk", [k_steps](const Env&) { return k_steps; },
                   [&](TileProgramBuilder& inner) {
                     inner.Add(tl::ops::Mma(
                         "flux.mma",
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
                               e.iv(1) != 0);
                         }));
                   });
          body.Add(tl::ops::Store("flux.store", nullptr));
        });
  FusedKernelSpec spec;
  spec.name = "flux_ag_gemm";
  spec.roles.push_back(Role{
      "fused",
      static_cast<int>(std::min<int64_t>(num_tiles,
                                         world.spec().sms_per_device)),
      b.Build()});
  compiled_ = Compiler().Compile(std::move(spec));
}

sim::Coro FluxAgGemm::Run(rt::RankCtx& ctx) {
  co_await world_->barrier().Arrive();
  auto state =
      compiled_.Launch(ctx, *ctx.stream, bcs_[static_cast<size_t>(ctx.rank)]);
  co_await AwaitKernel(state);
}

// ---------------------------------------------------------------------- //
// FluxGemmRs: coupled push-after-GEMM fusion with atomic reduction.
// ---------------------------------------------------------------------- //

FluxGemmRs::FluxGemmRs(rt::World& world, const FluxConfig& config)
    : world_(&world), cfg_(config) {
  const int R = world.size();
  TL_CHECK_EQ(cfg_.m % R, 0);
  const int64_t m_per = cfg_.m / R;
  // A tile straddling two owners' row blocks would be pushed whole to one.
  TL_CHECK_MSG(m_per % cfg_.gemm.bm == 0,
               "per-rank extent " << m_per << " must be a multiple of tile_m "
                                  << cfg_.gemm.bm);
  for (int r = 0; r < R; ++r) {
    rt::Device& dev = world.device(r);
    a_.push_back(
        Tensor::Alloc(dev, "flux_rs.a", {cfg_.m, cfg_.k}, DType::kBF16));
    b_.push_back(
        Tensor::Alloc(dev, "flux_rs.b", {cfg_.k, cfg_.n}, DType::kBF16));
    staging_.push_back(Tensor::Alloc(dev, "flux_rs.staging",
                                     {cfg_.m, cfg_.n}, DType::kBF16));
    out_.push_back(Tensor::Alloc(dev, "flux_rs.out", {m_per, cfg_.n},
                                 DType::kBF16));
  }
  bcs_ = BlockChannel::CreateSymmetric(world, "flux_rs", 1, 1, 1);
  const compute::GemmTiling tiling = cfg_.gemm;
  const int64_t tiles_m = CeilDiv<int64_t>(cfg_.m, tiling.bm);
  const int64_t tiles_n = CeilDiv<int64_t>(cfg_.n, tiling.bn);
  const int64_t num_tiles = tiles_m * tiles_n;
  const int64_t k_steps = CeilDiv<int64_t>(cfg_.k, tiling.bk);
  const int64_t k = cfg_.k;
  auto as = a_;
  auto bs = b_;
  auto staging = staging_;
  // Per-block accumulator tile: FLUX keeps the output in registers and
  // pushes it without a local round-trip.
  struct Acc {
    std::vector<float> vals;
  };
  // FLUX swizzles its tile order: each rank computes its own rows first, so
  // at every step the ranks' atomic pushes land on different owners and no
  // owner's ingress carries more than one rank's flows.
  const TileOrder tid_mn{tiles_m, tiles_n, tiles_m / R};
  TileProgramBuilder b;
  b.Scratch([tiling](const Env&) {
    auto acc = std::make_shared<Acc>();
    acc->vals.assign(static_cast<size_t>(tiling.bm) * tiling.bn, 0.0f);
    return acc;
  });
  b.For("t", [num_tiles](const Env& e) { return TilesForBlock(num_tiles, e); },
        [&](TileProgramBuilder& body) {
          body.Add(tl::ops::Elementwise(
              "flux.acc_init",
              [](const Env&, const sim::CostModel&) { return sim::TimeNs{0}; },
              [tiling](const Env& e) {
                static_cast<Acc*>(e.scratch)->vals.assign(
                    static_cast<size_t>(tiling.bm) * tiling.bn, 0.0f);
              }));
          body.For("kk", [k_steps](const Env&) { return k_steps; },
                   [&](TileProgramBuilder& inner) {
                     inner.Add(tl::ops::Mma(
                         "flux.mma",
                         [tiling](const sim::CostModel& cost) {
                           return cost.GemmTileStep(tiling.bm, tiling.bn,
                                                    tiling.bk);
                         },
                         [as, bs, tid_mn, tiling, k](const Env& e) {
                           const auto [tm, tn] = tid_mn(e);
                           const int64_t k0 = e.iv(1) * tiling.bk;
                           const int64_t kl =
                               std::min<int64_t>(tiling.bk, k - k0);
                           auto* acc = static_cast<Acc*>(e.scratch);
                           const Tensor& A = as[static_cast<size_t>(e.rank)];
                           const Tensor& B = bs[static_cast<size_t>(e.rank)];
                           for (int64_t i = 0; i < tiling.bm; ++i) {
                             const int64_t row = tm * tiling.bm + i;
                             if (row >= A.dim(0)) break;
                             for (int64_t j = 0; j < tiling.bn; ++j) {
                               const int64_t col = tn * tiling.bn + j;
                               if (col >= B.dim(1)) break;
                               float s = acc->vals[static_cast<size_t>(
                                   i * tiling.bn + j)];
                               for (int64_t x = k0; x < k0 + kl; ++x) {
                                 s += A.at({row, x}) * B.at({x, col});
                               }
                               acc->vals[static_cast<size_t>(i * tiling.bn +
                                                             j)] = s;
                             }
                           }
                         }));
                   });
          // Inline push with atomic reduction at the owner. The write is
          // pipelined (fire-and-forget RDMA through a copy engine), but the
          // coupled tile size means many small transfers contending for the
          // engines, and the kernel cannot retire until every atomic lands.
          body.Add(tl::ops::TilePushData(
              "flux.atomic_push",
              [staging, tid_mn, tiling, m_per](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                const int owner =
                    static_cast<int>(tm * tiling.bm / m_per);
                DataSpec d;
                d.src_rank = e.rank;
                d.dst_rank = owner;
                d.bytes = static_cast<uint64_t>(tiling.bm) * tiling.bn *
                          DTypeSize(staging[0].dtype());
                const Tensor dst_view =
                    staging[static_cast<size_t>(owner)]
                        .Slice(0, tm * tiling.bm, tiling.bm)
                        .Slice(1, tn * tiling.bn,
                               std::min<int64_t>(tiling.bn,
                                                 staging[0].dim(1) -
                                                     tn * tiling.bn));
                tl::SetWriteView(d, dst_view);
                d.atomic = true;
                return d;
              },
              /*notify_after=*/nullptr, /*async_dma=*/false,
              [staging, tid_mn, tiling, m_per](const Env& e) {
                const auto [tm, tn] = tid_mn(e);
                const int owner = static_cast<int>(tm * tiling.bm / m_per);
                auto* acc = static_cast<Acc*>(e.scratch);
                Tensor dst = staging[static_cast<size_t>(owner)];
                for (int64_t i = 0; i < tiling.bm; ++i) {
                  const int64_t row = tm * tiling.bm + i;
                  if (row >= dst.dim(0)) break;
                  for (int64_t j = 0; j < tiling.bn; ++j) {
                    const int64_t col = tn * tiling.bn + j;
                    if (col >= dst.dim(1)) break;
                    dst.at({row, col}) +=
                        acc->vals[static_cast<size_t>(i * tiling.bn + j)];
                  }
                }
              }));
        });
  FusedKernelSpec spec;
  spec.name = "flux_gemm_rs";
  spec.roles.push_back(Role{
      "fused",
      static_cast<int>(std::min<int64_t>(num_tiles,
                                         world.spec().sms_per_device)),
      b.Build()});
  compiled_ = Compiler().Compile(std::move(spec));
}

sim::Coro FluxGemmRs::Run(rt::RankCtx& ctx) {
  const int R = world_->size();
  const int64_t m_per = cfg_.m / R;
  if (world_->functional()) {
    staging_[static_cast<size_t>(ctx.rank)].buffer()->Zero();
  }
  co_await world_->barrier().Arrive();
  auto state =
      compiled_.Launch(ctx, *ctx.stream, bcs_[static_cast<size_t>(ctx.rank)]);
  co_await AwaitKernel(state);
  co_await world_->barrier().Arrive();  // all atomics landed everywhere
  // Epilogue: copy my accumulated row block to the output.
  if (world_->functional()) {
    Tensor src = staging_[static_cast<size_t>(ctx.rank)].Slice(
        0, ctx.rank * m_per, m_per);
    CopyTensor(src, out_[static_cast<size_t>(ctx.rank)]);
  }
  co_await sim::Delay{world_->cost().MemoryBound(
      static_cast<uint64_t>(m_per) * cfg_.n * 2 * 2, 40)};
}

}  // namespace tilelink::baselines
