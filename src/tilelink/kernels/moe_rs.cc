#include "tilelink/kernels/moe_rs.h"

#include <algorithm>

#include "common/math_utils.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/kernels/ring_rs.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

MoeRs::MoeRs(rt::World& world, const MoeRsConfig& config,
             const compute::MoeRouting& routing)
    : FusedKernelBase(world, config.name),
      cfg_(config),
      routing_(std::make_shared<const compute::MoeRouting>(routing)) {
  const int R = ranks();
  TL_CHECK_EQ(cfg_.m % R, 0);
  TL_CHECK_EQ((cfg_.m / R) % cfg_.rs_block_m, 0);
  TL_CHECK_EQ(cfg_.rs_block_m % cfg_.reduce_block_tokens, 0);
  const int64_t m_per_rank = cfg_.m / R;
  const int64_t slots = cfg_.m * cfg_.topk;
  acts_ = AllocSymmetric("acts", {slots, cfg_.k});
  weights_ = AllocSymmetric("w", {cfg_.num_experts, cfg_.k, cfg_.hidden});
  exp_out_ = AllocSymmetric("exp_out", {slots, cfg_.hidden});
  token_partial_ = AllocSymmetric("tok_partial", {cfg_.m, cfg_.hidden});
  staging_ = AllocSymmetric("staging", {cfg_.m, cfg_.hidden});
  out_ = AllocSymmetric("out", {m_per_rank, cfg_.hidden});

  // Built once and shared (read-only) with the program lambdas.
  group_blocks_ = std::make_shared<const std::vector<compute::GroupBlock>>(
      compute::MakeGroupBlocks(*routing_, cfg_.hidden, cfg_.gemm.bm,
                               cfg_.gemm.bn));
  // pc1: channels over sorted-slot space; threshold = overlapping blocks.
  num_pc1_ = static_cast<int>(
      CeilDiv<int64_t>(slots, cfg_.sorted_channel_rows));
  pc1_thresholds_.assign(static_cast<size_t>(num_pc1_), 0);
  for (const compute::GroupBlock& gb : *group_blocks_) {
    if (gb.rows == 0) continue;
    const int first =
        static_cast<int>(gb.sorted_row_start / cfg_.sorted_channel_rows);
    const int last = static_cast<int>(
        (gb.sorted_row_start + gb.rows - 1) / cfg_.sorted_channel_rows);
    for (int c = first; c <= last; ++c) {
      pc1_thresholds_[static_cast<size_t>(c)]++;
    }
  }
  // pc2: channels over token space, one per RS chunk.
  num_pc2_ = static_cast<int>(cfg_.m / cfg_.rs_block_m);

  // Dynamic wait tables for topk-reduce chunks: sorted positions of every
  // slot of the chunk's tokens -> pc1 channels.
  std::vector<int> inv_sorted(static_cast<size_t>(slots), 0);
  for (int64_t pos = 0; pos < slots; ++pos) {
    inv_sorted[static_cast<size_t>(
        routing_->sorted_slots[static_cast<size_t>(pos)])] =
        static_cast<int>(pos);
  }
  const int64_t reduce_chunks = cfg_.m / cfg_.reduce_block_tokens;
  auto reduce_waits = std::make_shared<DynamicMapping>();
  reduce_waits->Resize(reduce_chunks);
  std::vector<int> channels;       // reused: one chunk's channels, sorted
  std::vector<ChannelWait> waits;  // reused: that chunk's wait list
  for (int64_t ch = 0; ch < reduce_chunks; ++ch) {
    channels.clear();
    const int64_t t0 = ch * cfg_.reduce_block_tokens;
    for (int64_t t = t0; t < t0 + cfg_.reduce_block_tokens; ++t) {
      for (int kk = 0; kk < cfg_.topk; ++kk) {
        const int pos = inv_sorted[static_cast<size_t>(t * cfg_.topk + kk)];
        channels.push_back(pos / cfg_.sorted_channel_rows);
      }
    }
    std::sort(channels.begin(), channels.end());
    channels.erase(std::unique(channels.begin(), channels.end()),
                   channels.end());
    waits.clear();
    for (int c : channels) {
      waits.push_back(
          ChannelWait{c, pc1_thresholds_[static_cast<size_t>(c)]});
    }
    reduce_waits->SetTile(ch, TileRange{t0, t0 + cfg_.reduce_block_tokens}, 0,
                          waits.empty() ? 0 : waits.front().channel);
    reduce_waits->SetWaits(ch, waits);
  }
  reduce_waits_ = std::move(reduce_waits);

  const int64_t peer_channels = cfg_.m / cfg_.rs_block_m;
  CreateChannels(num_pc1_ + num_pc2_, static_cast<int>(peer_channels),
                 /*num_host=*/1);

  // RS role over token_partial, consumer waits on pc2 (offset channels).
  RingRsParams rs;
  rs.world_size = R;
  rs.m = cfg_.m;
  rs.n = cfg_.hidden;
  rs.block_m = cfg_.rs_block_m;
  rs.dtype = DType::kBF16;
  rs.partials = token_partial_;
  rs.staging = staging_;
  rs.outs = out_;
  rs.dma_push = cfg_.dma_push;
  const int pc1 = num_pc1_;
  const int64_t rs_rows = cfg_.rs_block_m;
  const int64_t reduce_per_chunk = rs_rows / cfg_.reduce_block_tokens;
  rs.wait_for_rows = [pc1, rs_rows, reduce_per_chunk](int64_t lo, int64_t hi) {
    WaitSpec spec;
    spec.space = SignalSpace::kProducerConsumer;
    const int first = static_cast<int>(lo / rs_rows);
    const int last = static_cast<int>((hi - 1) / rs_rows);
    for (int c = first; c <= last; ++c) {
      spec.waits.push_back(ChannelWait{
          pc1 + c, static_cast<uint64_t>(reduce_per_chunk)});
    }
    return spec;
  };

  const int64_t tiles = static_cast<int64_t>(group_blocks_->size());
  // Declarative form of the three-role chain: group_gemm -> topk_reduce ->
  // rs. The two dynamically-sized roles carry explicit work-item counts
  // (routing decides the group blocks; the reduce chunking is a config
  // knob, not a ring geometry).
  overlap_spec_.kernel = cfg_.name;
  overlap_spec_.spaces = {
      {"acts", std::max<int64_t>(tiles, 1), cfg_.gemm.bm, /*resident=*/true},
      {"w", 1, cfg_.k, /*resident=*/true},
      {"exp_out", std::max<int64_t>(tiles, 1), cfg_.gemm.bm,
       /*resident=*/false},
      {"token_partial", reduce_chunks, cfg_.reduce_block_tokens,
       /*resident=*/false},
      {"out", m_per_rank / cfg_.rs_block_m, cfg_.rs_block_m,
       /*resident=*/false},
  };
  OverlapRoleSpec ring;
  ring.name = "rs";
  ring.kind = OverlapRoleKind::kRingReduceScatter;
  ring.want_sms = cfg_.comm_sms;
  ring.reads = {{"token_partial"}};
  ring.writes = {{"out"}};
  ring.block_rows = m_per_rank;
  ring.chunk_rows = cfg_.rs_block_m;
  ring.cols = cfg_.hidden;
  OverlapRoleSpec reduce;
  reduce.name = "topk_reduce";
  reduce.kind = OverlapRoleKind::kComm;
  reduce.want_sms = cfg_.reduce_sms;
  reduce.work_items = reduce_chunks;
  reduce.reads = {{"exp_out"}};
  reduce.writes = {{"token_partial"}};
  OverlapRoleSpec gemm;
  gemm.name = "group_gemm";
  gemm.kind = OverlapRoleKind::kCompute;
  gemm.reads = {{"acts"}, {"w"}};
  gemm.writes = {{"exp_out"}};
  gemm.work_items = tiles;
  overlap_spec_.roles = {std::move(ring), std::move(reduce), std::move(gemm)};
  overlap_plan_ = OverlapPlanner(world.spec()).Plan(overlap_spec_);
  rs.col_splits = overlap_plan_.At("rs").col_splits;
  Finalize(BuildFromPlan(overlap_plan_, [&](const PlannedRole& role) {
    if (role.name == "rs") return BuildRingReduceScatter(rs);
    if (role.name == "topk_reduce") return BuildTopkReduce();
    return BuildGroupGemm();
  }));
}

// Producer role: expert GEMM tiles write slot-order partial outputs and
// notify every pc1 channel their sorted rows overlap.
BlockProgram MoeRs::BuildGroupGemm() {
  TileProgramBuilder b;
  auto acts = acts_;
  auto weights = weights_;
  auto outs = exp_out_;
  auto blocks = group_blocks_;
  auto routing = routing_;
  const compute::GemmTiling tiling = cfg_.gemm;
  const int64_t k = cfg_.k;
  const int64_t k_steps = CeilDiv<int64_t>(k, tiling.bk);
  const int64_t num_tiles = static_cast<int64_t>(blocks->size());
  const int sorted_rows = cfg_.sorted_channel_rows;
  auto block_of = [blocks](const Env& e) -> const compute::GroupBlock& {
    return (*blocks)[static_cast<size_t>(e.block_id + e.iv(0) * e.grid)];
  };
  b.For("t", [num_tiles](const Env& e) { return TilesForBlock(num_tiles, e); },
        [&](TileProgramBuilder& body) {
          body.For("kk", [k_steps](const Env&) { return k_steps; },
                   [&](TileProgramBuilder& inner) {
                     inner.Add(ops::Mma(
                         "moe2.group_mma",
                         [tiling](const sim::CostModel& cost) {
                           return static_cast<sim::TimeNs>(
                               cost.GemmTileStep(tiling.bm, tiling.bn,
                                                 tiling.bk) *
                               1.05);
                         }));
                   });
          body.Add(ops::Store(
              "moe2.store",
              [outs, block_of, routing](const Env& e) {
                const compute::GroupBlock& gb = block_of(e);
                DataSpec d;
                if (gb.rows > 0) {
                  int64_t lo_row = outs[0].dim(0), hi_row = 0;
                  for (int r = 0; r < gb.rows; ++r) {
                    const int slot = routing->sorted_slots[static_cast<size_t>(
                        gb.sorted_row_start + r)];
                    lo_row = std::min<int64_t>(lo_row, slot);
                    hi_row = std::max<int64_t>(hi_row, slot + 1);
                  }
                  const Tensor view = outs[static_cast<size_t>(e.rank)].Slice(
                      0, lo_row, std::max<int64_t>(1, hi_row - lo_row));
                  view.BufferRange(&d.write_lo, &d.write_hi);
                  d.write_buf = view.buffer();
                }
                return d;
              },
              [acts, weights, outs, block_of, routing, k](const Env& e) {
                const compute::GroupBlock& gb = block_of(e);
                const Tensor w =
                    weights[static_cast<size_t>(e.rank)].Select(0, gb.expert);
                const Tensor& in = acts[static_cast<size_t>(e.rank)];
                Tensor out = outs[static_cast<size_t>(e.rank)];
                for (int r = 0; r < gb.rows; ++r) {
                  const int slot = routing->sorted_slots[static_cast<size_t>(
                      gb.sorted_row_start + r)];
                  for (int c = 0; c < gb.n_cols; ++c) {
                    float acc = 0.0f;
                    for (int64_t x = 0; x < k; ++x) {
                      acc += in.at({slot, x}) * w.at({x, gb.n_start + c});
                    }
                    out.at({slot, gb.n_start + c}) = acc;
                  }
                }
              }));
          body.Add(ops::ProducerTileNotify(
              "moe2.notify(pc1)", [block_of, sorted_rows](const Env& e) {
                const compute::GroupBlock& gb = block_of(e);
                NotifySpec spec;
                if (gb.rows > 0) {
                  const int first =
                      static_cast<int>(gb.sorted_row_start / sorted_rows);
                  const int last = static_cast<int>(
                      (gb.sorted_row_start + gb.rows - 1) / sorted_rows);
                  for (int c = first; c <= last; ++c) {
                    spec.entries.push_back(NotifyEntry{
                        SignalSpace::kProducerConsumer, e.rank, c, 1});
                  }
                }
                return spec;
              }));
        });
  return b.Build();
}

// Middle role: per-token combine of topk expert rows (dynamic waits on pc1),
// producing the RS role's input and notifying pc2.
BlockProgram MoeRs::BuildTopkReduce() {
  TileProgramBuilder b;
  auto exp_outs = exp_out_;
  auto partials = token_partial_;
  auto dyn = reduce_waits_;
  auto routing = routing_;
  const int64_t bt = cfg_.reduce_block_tokens;
  const int64_t chunks = cfg_.m / bt;
  const int64_t hidden = cfg_.hidden;
  const int topk = cfg_.topk;
  const int pc1 = num_pc1_;
  const int64_t rs_rows = cfg_.rs_block_m;
  auto chunk_of = [](const Env& e) {
    return static_cast<int64_t>(e.block_id) + e.iv(0) * e.grid;
  };
  b.For("t", [chunks](const Env& e) { return TilesForBlock(chunks, e); },
        [&](TileProgramBuilder& body) {
          body.Add(ops::ConsumerTileWait(
              "reduce.consumer_wait(table)", [dyn, chunk_of](const Env& e) {
                const auto waits = dyn->Waits(chunk_of(e));
                WaitSpec spec;
                spec.space = SignalSpace::kProducerConsumer;
                spec.waits.assign(waits.begin(), waits.end());
                return spec;
              }));
          body.Add(ops::Load(
              "reduce.load_expert_rows", /*acquire=*/true,
              [exp_outs, chunk_of, bt, topk](const Env& e) {
                DataSpec d;
                const Tensor view = exp_outs[static_cast<size_t>(e.rank)].Slice(
                    0, chunk_of(e) * bt * topk, bt * topk);
                view.BufferRange(&d.read_lo, &d.read_hi);
                d.read_buf = view.buffer();
                return d;
              }));
          body.Add(ops::Elementwise(
              "reduce.topk_combine",
              [bt, hidden, topk](const Env& e, const sim::CostModel& cost) {
                const uint64_t bytes = static_cast<uint64_t>(bt) *
                                       (topk + 1) * hidden * 2;
                return cost.MemoryBound(bytes, e.grid);
              },
              [exp_outs, partials, routing, chunk_of, bt, hidden,
               topk](const Env& e) {
                const Tensor& in = exp_outs[static_cast<size_t>(e.rank)];
                Tensor out = partials[static_cast<size_t>(e.rank)];
                const int64_t t0 = chunk_of(e) * bt;
                for (int64_t t = t0; t < t0 + bt; ++t) {
                  for (int64_t c = 0; c < hidden; ++c) {
                    float acc = 0.0f;
                    for (int kk = 0; kk < topk; ++kk) {
                      const int64_t slot = t * topk + kk;
                      acc += routing->topk_weights[static_cast<size_t>(slot)] *
                             in.at({slot, c});
                    }
                    out.at({t, c}) = acc;
                  }
                }
              }));
          body.Add(ops::Store(
              "reduce.store", [partials, chunk_of, bt](const Env& e) {
                const Tensor view = partials[static_cast<size_t>(e.rank)].Slice(
                    0, chunk_of(e) * bt, bt);
                DataSpec d;
                view.BufferRange(&d.write_lo, &d.write_hi);
                d.write_buf = view.buffer();
                return d;
              }));
          body.Add(ops::ProducerTileNotify(
              "reduce.notify(pc2)", [chunk_of, bt, rs_rows, pc1](const Env& e) {
                return NotifyOne(
                    SignalSpace::kProducerConsumer, e.rank,
                    pc1 + static_cast<int>(chunk_of(e) * bt / rs_rows));
              }));
        });
  return b.Build();
}

}  // namespace tilelink::tl
