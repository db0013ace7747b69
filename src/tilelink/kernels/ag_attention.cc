#include "tilelink/kernels/ag_attention.h"

#include <algorithm>
#include <cmath>

#include "common/math_utils.h"
#include "compute/tile_math.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

AgAttention::AgAttention(rt::World& world, const AgAttentionConfig& config)
    : FusedKernelBase(world, config.name), cfg_(config) {
  const int R = ranks();
  TL_CHECK_EQ(cfg_.seq % R, 0);
  const int64_t s_per = cfg_.seq / R;
  q_ = AllocSymmetric("q", {cfg_.batch_heads, s_per, cfg_.head_dim});
  k_shards_ = AllocSymmetric("k_shard", {cfg_.batch_heads, s_per,
                                         cfg_.head_dim});
  v_shards_ = AllocSymmetric("v_shard", {cfg_.batch_heads, s_per,
                                         cfg_.head_dim});
  k_ = AllocSymmetric("k", {cfg_.batch_heads, cfg_.seq, cfg_.head_dim});
  v_ = AllocSymmetric("v", {cfg_.batch_heads, cfg_.seq, cfg_.head_dim});
  out_ = AllocSymmetric("out", {cfg_.batch_heads, s_per, cfg_.head_dim});
  // Host channels: one per KV segment (source rank).
  CreateChannels(/*num_pc=*/1, /*num_peer=*/1, /*num_host=*/R);

  const int64_t q_tiles = CeilDiv<int64_t>(s_per, cfg_.block_q);
  // Declarative form: the host-DMA role gathers the R KV segments; flash
  // consumer tiles read them as they land (host signal space).
  overlap_spec_.kernel = cfg_.name;
  overlap_spec_.spaces = {
      {"q", cfg_.batch_heads * q_tiles, cfg_.block_q, /*resident=*/true},
      {"kv_shard", 1, s_per, /*resident=*/true},
      {"kv", static_cast<int64_t>(R), s_per, /*resident=*/false},
      {"out", cfg_.batch_heads * q_tiles, cfg_.block_q, /*resident=*/false},
  };
  OverlapRoleSpec dma;
  dma.name = "ag_kv";
  dma.kind = OverlapRoleKind::kHostDma;
  dma.resource = CommResource::kDma;
  dma.reads = {{"kv_shard"}};
  dma.writes = {{"kv"}};
  OverlapRoleSpec flash;
  flash.name = "flash_attn";
  flash.kind = OverlapRoleKind::kCompute;
  flash.reads = {{"q"}, {"kv"}};
  flash.writes = {{"out"}};
  flash.work_items = cfg_.batch_heads * q_tiles;
  overlap_spec_.roles = {std::move(dma), std::move(flash)};
  overlap_plan_ = OverlapPlanner(world.spec()).Plan(overlap_spec_);
  Finalize(BuildFromPlan(overlap_plan_,
                         [this](const PlannedRole&) { return BuildFlash(); }));
}

BlockProgram AgAttention::BuildFlash() {
  TileProgramBuilder b;
  auto qs = q_;
  auto ks = k_;
  auto vs = v_;
  auto outs = out_;
  const int R = ranks();
  const int64_t s_per = cfg_.seq / R;
  const int64_t q_tiles = CeilDiv<int64_t>(s_per, cfg_.block_q);
  const int64_t num_tiles = cfg_.batch_heads * q_tiles;
  const int64_t kv_steps = CeilDiv<int64_t>(s_per, cfg_.block_kv);
  const int64_t bq = cfg_.block_q;
  const int64_t bkv = cfg_.block_kv;
  const int64_t d = cfg_.head_dim;
  const double tf = cfg_.throughput_factor;
  const bool skip_comm = cfg_.skip_comm;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  // Segment-major schedule: each persistent block owns several q-tiles and,
  // for every KV segment in ring order (own segment first — its local copy
  // lands immediately), advances ALL its q-tiles by that segment. Compute on
  // segment s thus overlaps the DMA of segment s+1; tile-major order would
  // stall the whole block on the last segment.
  auto head_q0 = [q_tiles, bq](const Env& e, int64_t local_t) {
    const int64_t t = e.block_id + local_t * e.grid;
    return std::pair<int64_t, int64_t>(t / q_tiles, (t % q_tiles) * bq);
  };
  auto seg_rank = [R](const Env& e) {
    return static_cast<int>((e.rank + e.iv(0)) % R);
  };
  using StateVec = std::vector<compute::FlashState>;
  b.Scratch([bq, d, num_tiles](const Env& e) {
    auto states = std::make_shared<StateVec>(
        static_cast<size_t>(TilesForBlock(num_tiles, e)));
    for (compute::FlashState& s : *states) s.Reset(bq, d);
    return states;
  });
  b.For("seg", [R](const Env&) { return static_cast<int64_t>(R); },
        [&](TileProgramBuilder& sb) {
          sb.Add(ops::ConsumerTileWait(
              "flash.consumer_wait(host)",
              [seg_rank, skip_comm](const Env& e) {
                WaitSpec spec;
                spec.space = SignalSpace::kHost;
                if (!skip_comm) {
                  spec.waits.push_back(ChannelWait{seg_rank(e), 1});
                }
                return spec;
              }));
          sb.For("t",
                 [num_tiles](const Env& e) {
                   return TilesForBlock(num_tiles, e);
                 },
                 [&](TileProgramBuilder& tb) {
                   tb.For("kv", [kv_steps](const Env&) { return kv_steps; },
                          [&](TileProgramBuilder& kb) {
                            kb.Add(ops::Load(
                                "flash.load_kv", /*acquire=*/true,
                                [ks, seg_rank, s_per, bkv](const Env& e) {
                                  DataSpec dsp;
                                  const int64_t kv0 =
                                      seg_rank(e) * s_per + e.iv(2) * bkv;
                                  const Tensor view =
                                      ks[static_cast<size_t>(e.rank)].Slice(
                                          1, kv0, bkv);
                                  view.BufferRange(&dsp.read_lo,
                                                   &dsp.read_hi);
                                  dsp.read_buf = view.buffer();
                                  return dsp;
                                }));
                            kb.Add(ops::Mma(
                                "flash.step",
                                [bq, bkv, d, tf](const sim::CostModel& c) {
                                  return static_cast<sim::TimeNs>(
                                      c.FlashAttnTileStep(
                                          static_cast<int>(bq),
                                          static_cast<int>(bkv),
                                          static_cast<int>(d)) /
                                      tf);
                                },
                                [qs, ks, vs, head_q0, seg_rank, s_per, bq,
                                 bkv, scale](const Env& e) {
                                  const auto [head, q0] =
                                      head_q0(e, e.iv(1));
                                  const Tensor qh =
                                      qs[static_cast<size_t>(e.rank)].Select(
                                          0, head);
                                  const Tensor kh =
                                      ks[static_cast<size_t>(e.rank)].Select(
                                          0, head);
                                  const Tensor vh =
                                      vs[static_cast<size_t>(e.rank)].Select(
                                          0, head);
                                  auto& state =
                                      (*static_cast<StateVec*>(e.scratch))
                                          [static_cast<size_t>(e.iv(1))];
                                  const int64_t kv0 =
                                      seg_rank(e) * s_per + e.iv(2) * bkv;
                                  compute::FlashAttnStep(qh, kh, vh, state,
                                                         q0, bq, kv0, bkv,
                                                         scale);
                                }));
                          });
                 });
        });
  // Epilogue: finalize and store every owned q-tile.
  b.For("t",
        [num_tiles](const Env& e) { return TilesForBlock(num_tiles, e); },
        [&](TileProgramBuilder& tb) {
          tb.Add(ops::Store(
              "flash.store",
              [outs, head_q0, bq](const Env& e) {
                const auto [head, q0] = head_q0(e, e.iv(0));
                const Tensor view = outs[static_cast<size_t>(e.rank)]
                                        .Select(0, head)
                                        .Slice(0, q0, bq);
                DataSpec dsp;
                view.BufferRange(&dsp.write_lo, &dsp.write_hi);
                dsp.write_buf = view.buffer();
                return dsp;
              },
              [outs, head_q0, bq](const Env& e) {
                const auto [head, q0] = head_q0(e, e.iv(0));
                Tensor oh = outs[static_cast<size_t>(e.rank)].Select(0, head);
                compute::FlashFinalize(
                    (*static_cast<StateVec*>(e.scratch))
                        [static_cast<size_t>(e.iv(0))],
                    oh, q0, bq);
              }));
        });
  return b.Build();
}

// Figure 6 lines 14-20: host primitives drive the copy engines on the comm
// stream *in ring order, one segment at a time* — sequential issue is what
// makes segments land progressively so consumers start early (concurrent
// issue would fair-share the ingress port and complete all segments at
// once, serializing compute behind the whole gather).
sim::Coro AgAttention::DmaAllGatherKv(rt::RankCtx& ctx) {
  const int R = ranks();
  const int64_t s_per = cfg_.seq / R;
  const BlockChannel& bc = channel(ctx.rank);
  for (int s = 0; s < R; ++s) {
    const int src = (ctx.rank + s) % R;
    Tensor k_dst = k_[static_cast<size_t>(ctx.rank)].Slice(1, src * s_per,
                                                           s_per);
    Tensor v_dst = v_[static_cast<size_t>(ctx.rank)].Slice(1, src * s_per,
                                                           s_per);
    co_await RankCopyData(ctx, k_shards_[static_cast<size_t>(src)], k_dst);
    co_await RankCopyData(ctx, v_shards_[static_cast<size_t>(src)], v_dst);
    RankNotify(ctx, bc, ctx.rank, src, 1);
  }
}

std::optional<sim::Coro> AgAttention::HostComm(rt::RankCtx& ctx) {
  if (cfg_.skip_comm) return std::nullopt;  // data assumed resident
  return DmaAllGatherKv(ctx);
}

}  // namespace tilelink::tl
