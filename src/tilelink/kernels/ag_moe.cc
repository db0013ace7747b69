#include "tilelink/kernels/ag_moe.h"

#include <algorithm>

#include "common/math_utils.h"
#include "tilelink/builder/comm_roles.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

AgMoe::AgMoe(rt::World& world, const AgMoeConfig& config,
             const compute::MoeRouting& routing)
    : FusedKernelBase(world, config.name),
      cfg_(config),
      routing_(std::make_shared<const compute::MoeRouting>(routing)),
      map_(config.m, config.comm_tile_m, world.size(),
           StaticMapping::ResolveChannelsPerRank(
               config.m, config.comm_tile_m, world.size(),
               config.channels_per_rank)) {
  TL_CHECK_EQ(cfg_.m % ranks(), 0);
  TL_CHECK_EQ(routing_->num_tokens, cfg_.m);
  TL_CHECK_EQ(routing_->num_experts, cfg_.num_experts);
  const int64_t m_per_rank = cfg_.m / ranks();
  token_shards_ = AllocSymmetric("shard", {m_per_rank, cfg_.hidden});
  tokens_ = AllocSymmetric("tokens", {cfg_.m, cfg_.hidden});
  weights_ = AllocSymmetric("w", {cfg_.num_experts, cfg_.hidden, cfg_.n});
  out_ = AllocSymmetric("out", {cfg_.m * cfg_.topk, cfg_.n});
  CreateChannels(map_.num_channels(), /*num_peer=*/1, /*num_host=*/1);

  // Dynamic mapping: for each expert tile (group block), the channels whose
  // completion guarantees every token the tile gathers has arrived. These
  // are the lookup tables of §4.1, filled here by the routing "runtime".
  // Built once and shared (read-only) with the program lambdas.
  group_blocks_ = std::make_shared<const std::vector<compute::GroupBlock>>(
      compute::MakeGroupBlocks(*routing_, cfg_.n, cfg_.gemm.bm, cfg_.gemm.bn));
  const std::vector<compute::GroupBlock>& group_blocks = *group_blocks_;
  auto dyn = std::make_shared<DynamicMapping>();
  dyn->Resize(static_cast<int64_t>(group_blocks.size()));
  // MakeGroupBlocks emits the n-tiles of one expert row chunk back to back,
  // so a block over the previous block's rows reuses its wait list.
  std::vector<int> channels;       // reused: one chunk's channels, sorted
  std::vector<ChannelWait> waits;  // reused: that chunk's wait list
  int64_t row_lo = 0, row_hi = 0;
  int64_t chunk_start = -1;
  int chunk_rows = -1;
  for (size_t i = 0; i < group_blocks.size(); ++i) {
    const compute::GroupBlock& gb = group_blocks[i];
    if (gb.sorted_row_start != chunk_start || gb.rows != chunk_rows) {
      chunk_start = gb.sorted_row_start;
      chunk_rows = gb.rows;
      channels.clear();
      row_lo = cfg_.m;
      row_hi = 0;
      for (int r = 0; r < gb.rows; ++r) {
        const int token =
            routing_->token_of_sorted(gb.sorted_row_start + r);
        channels.push_back(map_.ChannelOfRow(token));
        row_lo = std::min<int64_t>(row_lo, token);
        row_hi = std::max<int64_t>(row_hi, token + 1);
      }
      std::sort(channels.begin(), channels.end());
      channels.erase(std::unique(channels.begin(), channels.end()),
                     channels.end());
      waits.clear();
      for (int c : channels) {
        waits.push_back(ChannelWait{c, map_.TilesInChannel(c)});
      }
    }
    dyn->SetTile(static_cast<int64_t>(i),
                 TileRange{std::min(row_lo, row_hi), row_hi}, gb.expert,
                 waits.empty() ? 0 : waits.front().channel);
    dyn->SetWaits(static_cast<int64_t>(i), waits);
  }
  dyn_ = std::move(dyn);

  const int64_t tiles = static_cast<int64_t>(group_blocks.size());
  const RowAllGatherParams ag_params{map_, token_shards_, tokens_, ranks(),
                                     m_per_rank};
  // Declarative form. The SM comm role is always the pull AllGather here
  // (one block per *gathered* tile), so the spec records kSmPull whatever
  // the config's SM resource flag says; the group GEMM's work is the
  // routing-dependent group-block count, an explicit override.
  overlap_spec_.kernel = cfg_.name;
  overlap_spec_.spaces = {
      {"token_shard", map_.tiles_per_rank(), cfg_.comm_tile_m,
       /*resident=*/true},
      {"tokens", map_.num_tiles(), cfg_.comm_tile_m, /*resident=*/false},
      {"w", 1, cfg_.hidden, /*resident=*/true},
      {"out", std::max<int64_t>(tiles, 1), cfg_.gemm.bm, /*resident=*/false},
  };
  OverlapRoleSpec ag;
  ag.name = "ag";
  ag.kind = OverlapRoleKind::kRowAllGather;
  ag.resource = cfg_.comm == CommResource::kDma ? CommResource::kDma
                                                : CommResource::kSmPull;
  ag.want_sms = cfg_.comm_sms;
  ag.reads = {{"token_shard"}};
  ag.writes = {{"tokens"}};
  OverlapRoleSpec gemm;
  gemm.name = "group_gemm";
  gemm.kind = OverlapRoleKind::kCompute;
  gemm.reads = {{"tokens"}, {"w"}};
  gemm.writes = {{"out"}};
  gemm.work_items = tiles;
  overlap_spec_.roles = {std::move(ag), std::move(gemm)};
  overlap_plan_ = OverlapPlanner(world.spec()).Plan(overlap_spec_);
  Finalize(BuildFromPlan(overlap_plan_, [&](const PlannedRole& role) {
    return role.name == "ag" ? BuildRowAllGatherPull(ag_params)
                             : BuildGroupGemm();
  }));
}

// Group-GEMM role: expert tiles with dynamic-mapping waits (Figure 5 lines
// 6-15). The `table` argument of the paper is dyn_: the wait op reads the
// per-tile lookup entries filled by the routing.
BlockProgram AgMoe::BuildGroupGemm() {
  TileProgramBuilder b;
  auto fulls = tokens_;
  auto weights = weights_;
  auto outs = out_;
  auto blocks = group_blocks_;
  auto dyn = dyn_;
  auto routing = routing_;
  const compute::GemmTiling tiling = cfg_.gemm;
  const int64_t k = cfg_.hidden;
  const int64_t k_steps = CeilDiv<int64_t>(k, tiling.bk);
  const int64_t num_tiles = static_cast<int64_t>(blocks->size());
  auto block_of = [blocks](const Env& e) -> const compute::GroupBlock& {
    return (*blocks)[static_cast<size_t>(e.block_id + e.iv(0) * e.grid)];
  };
  b.For("t", [num_tiles](const Env& e) { return TilesForBlock(num_tiles, e); },
        [&](TileProgramBuilder& body) {
          body.Add(ops::ConsumerTileWait(
              "moe.consumer_wait(table)", [dyn](const Env& e) {
                const auto waits =
                    dyn->Waits(e.block_id + e.iv(0) * e.grid);
                WaitSpec spec;
                spec.space = SignalSpace::kProducerConsumer;
                spec.waits.assign(waits.begin(), waits.end());
                return spec;
              }));
          body.For("kk", [k_steps](const Env&) { return k_steps; },
                   [&](TileProgramBuilder& inner) {
                     inner.Add(ops::Load(
                         "moe.load_tokens(table)", /*acquire=*/true,
                         [fulls, dyn](const Env& e) {
                           const TileRange rows = dyn->ShapeRange(
                               e.block_id + e.iv(0) * e.grid);
                           DataSpec d;
                           if (rows.len() > 0) {
                             const Tensor view =
                                 fulls[static_cast<size_t>(e.rank)].Slice(
                                     0, rows.lo, rows.len());
                             view.BufferRange(&d.read_lo, &d.read_hi);
                             d.read_buf = view.buffer();
                           }
                           return d;
                         }));
                     inner.Add(ops::Mma(
                         "moe.group_mma",
                         [tiling](const sim::CostModel& cost) {
                           // Fused-gather addressing overhead ~5%.
                           return static_cast<sim::TimeNs>(
                               cost.GemmTileStep(tiling.bm, tiling.bn,
                                                 tiling.bk) *
                               1.05);
                         }));
                   });
          body.Add(ops::Store(
              "moe.store",
              [outs, block_of, routing](const Env& e) {
                const compute::GroupBlock& gb = block_of(e);
                DataSpec d;
                if (gb.rows > 0) {
                  // Conservative range over the scattered slot rows.
                  int64_t lo_row = outs[0].dim(0), hi_row = 0;
                  for (int r = 0; r < gb.rows; ++r) {
                    const int slot = routing->sorted_slots[static_cast<size_t>(
                        gb.sorted_row_start + r)];
                    lo_row = std::min<int64_t>(lo_row, slot);
                    hi_row = std::max<int64_t>(hi_row, slot + 1);
                  }
                  const Tensor view =
                      outs[static_cast<size_t>(e.rank)].Slice(
                          0, lo_row, std::max<int64_t>(1, hi_row - lo_row));
                  view.BufferRange(&d.write_lo, &d.write_hi);
                  d.write_buf = view.buffer();
                }
                return d;
              },
              [fulls, weights, outs, block_of, routing, k](const Env& e) {
                const compute::GroupBlock& gb = block_of(e);
                const Tensor w =
                    weights[static_cast<size_t>(e.rank)].Select(0, gb.expert);
                Tensor out = outs[static_cast<size_t>(e.rank)];
                const Tensor& toks = fulls[static_cast<size_t>(e.rank)];
                for (int r = 0; r < gb.rows; ++r) {
                  const int slot = routing->sorted_slots[static_cast<size_t>(
                      gb.sorted_row_start + r)];
                  const int token = slot / routing->topk;
                  for (int c = 0; c < gb.n_cols; ++c) {
                    float acc = 0.0f;
                    for (int64_t x = 0; x < k; ++x) {
                      acc += toks.at({token, x}) * w.at({x, gb.n_start + c});
                    }
                    out.at({slot, gb.n_start + c}) = acc;
                  }
                }
              }));
        });
  return b.Build();
}

std::optional<sim::Coro> AgMoe::HostComm(rt::RankCtx& ctx) {
  if (cfg_.comm != CommResource::kDma) return std::nullopt;
  return DmaRowAllGather(ctx, channel(ctx.rank),
                         RowAllGatherParams{map_, token_shards_, tokens_,
                                            ranks(), cfg_.m / ranks()});
}

}  // namespace tilelink::tl
