#include "baselines/attention_baselines.h"

#include "comm/p2p.h"
#include "sim/coro_utils.h"
#include "tensor/tensor_ops.h"

namespace tilelink::baselines {

// ---------------------------------------------------------------------- //
// TorchAttention
// ---------------------------------------------------------------------- //

TorchAttention::TorchAttention(rt::World& world,
                               const AttentionConfig& config)
    : world_(&world), cfg_(config) {
  const int R = world.size();
  TL_CHECK_EQ(cfg_.seq % R, 0);
  const int64_t s_per = cfg_.seq / R;
  for (int r = 0; r < R; ++r) {
    rt::Device& dev = world.device(r);
    q_.push_back(Tensor::Alloc(dev, "torch_attn.q",
                               {cfg_.batch_heads, s_per, cfg_.head_dim},
                               DType::kBF16));
    k_shards_.push_back(Tensor::Alloc(
        dev, "torch_attn.ks", {cfg_.batch_heads, s_per, cfg_.head_dim},
        DType::kBF16));
    v_shards_.push_back(Tensor::Alloc(
        dev, "torch_attn.vs", {cfg_.batch_heads, s_per, cfg_.head_dim},
        DType::kBF16));
    k_.push_back(Tensor::Alloc(dev, "torch_attn.k",
                               {cfg_.batch_heads, cfg_.seq, cfg_.head_dim},
                               DType::kBF16));
    v_.push_back(Tensor::Alloc(dev, "torch_attn.v",
                               {cfg_.batch_heads, cfg_.seq, cfg_.head_dim},
                               DType::kBF16));
    out_.push_back(Tensor::Alloc(dev, "torch_attn.out",
                                 {cfg_.batch_heads, s_per, cfg_.head_dim},
                                 DType::kBF16));
  }
}

sim::Coro TorchAttention::Run(rt::RankCtx& ctx) {
  co_await world_->barrier().Arrive();
  const int R = world_->size();
  const int64_t s_per = cfg_.seq / R;
  const size_t r = static_cast<size_t>(ctx.rank);
  // NCCL AllGather of K and V (dim-1 sharded; flatten to row-sharded form
  // by copying per-head segments — billed as two collectives).
  // For timing we run two AllGathers over equivalent byte volumes; the
  // functional placement is done per segment below.
  comm::SymTensor k_flat_shards, k_flat_out, v_flat_shards, v_flat_out;
  for (int p = 0; p < R; ++p) {
    k_flat_shards.push_back(k_shards_[static_cast<size_t>(p)]);
    v_flat_shards.push_back(v_shards_[static_cast<size_t>(p)]);
  }
  // Timing: two collectives moving the same bytes as the KV gather.
  const uint64_t shard_bytes = k_shards_[r].logical_bytes();
  co_await world_->comm_barrier().Arrive();
  co_await sim::Delay{world_->spec().collective_setup_latency * 2};
  {
    std::vector<sim::Coro> pulls;
    for (int p = 0; p < R; ++p) {
      if (p == ctx.rank) continue;
      pulls.push_back(world_->Transfer(p, ctx.rank, 2 * shard_bytes));
    }
    co_await sim::WhenAll(std::move(pulls));
  }
  if (world_->functional()) {
    for (int p = 0; p < R; ++p) {
      Tensor kd = k_[r].Slice(1, p * s_per, s_per);
      Tensor vd = v_[r].Slice(1, p * s_per, s_per);
      CopyTensor(k_shards_[static_cast<size_t>(p)], kd);
      CopyTensor(v_shards_[static_cast<size_t>(p)], vd);
    }
  }
  // Eager attention pipeline (de-rated flash-equivalent numerics) at 0.2x
  // the throughput of flash.
  compute::FlashOptions opt;
  opt.block_q = cfg_.block_q;
  opt.block_kv = cfg_.block_kv;
  opt.throughput_factor = 0.20;
  opt.name = "torch_eager_attention";
  compute::LaunchFlashAttention(ctx, *ctx.stream, q_[r], k_[r], v_[r],
                                out_[r], opt);
  co_await ctx.stream->Synchronize();
}

// ---------------------------------------------------------------------- //
// RingAttention
// ---------------------------------------------------------------------- //

RingAttention::RingAttention(rt::World& world, const AttentionConfig& config)
    : world_(&world), cfg_(config) {
  const int R = world.size();
  TL_CHECK_EQ(cfg_.seq % R, 0);
  const int64_t s_per = cfg_.seq / R;
  for (int r = 0; r < R; ++r) {
    rt::Device& dev = world.device(r);
    q_.push_back(Tensor::Alloc(dev, "ring_attn.q",
                               {cfg_.batch_heads, s_per, cfg_.head_dim},
                               DType::kBF16));
    k_shards_.push_back(Tensor::Alloc(
        dev, "ring_attn.ks", {cfg_.batch_heads, s_per, cfg_.head_dim},
        DType::kBF16));
    v_shards_.push_back(Tensor::Alloc(
        dev, "ring_attn.vs", {cfg_.batch_heads, s_per, cfg_.head_dim},
        DType::kBF16));
    // Double buffers for the ring (current chunk + incoming chunk).
    for (int buf = 0; buf < 2; ++buf) {
      k_buf_.push_back(Tensor::Alloc(
          dev, "ring_attn.kbuf", {cfg_.batch_heads, s_per, cfg_.head_dim},
          DType::kBF16));
      v_buf_.push_back(Tensor::Alloc(
          dev, "ring_attn.vbuf", {cfg_.batch_heads, s_per, cfg_.head_dim},
          DType::kBF16));
    }
    out_.push_back(Tensor::Alloc(dev, "ring_attn.out",
                                 {cfg_.batch_heads, s_per, cfg_.head_dim},
                                 DType::kBF16));
  }
}

sim::Coro RingAttention::Run(rt::RankCtx& ctx) {
  co_await world_->barrier().Arrive();
  const int R = world_->size();
  const int64_t s_per = cfg_.seq / R;
  const int r = ctx.rank;
  // Scratch output per step (the real system merges partials online; the
  // merge is numerically equivalent to one full softmax, which we compute
  // below from the gathered shards).
  Tensor scratch = Tensor::Alloc(world_->device(r), "ring_attn.scratch",
                                 {cfg_.batch_heads, s_per, cfg_.head_dim},
                                 DType::kBF16);
  const int next = (r + 1) % R;
  for (int s = 0; s < R; ++s) {
    const size_t cur = static_cast<size_t>(r * 2 + (s % 2));
    const size_t nxt = static_cast<size_t>(r * 2 + ((s + 1) % 2));
    if (s == 0) {
      // Load own shard into the current buffer (local copy, not hidden).
      co_await comm::CopyTensorP2P(*world_, world_->device(r),
                                   k_shards_[static_cast<size_t>(r)],
                                   k_buf_[cur]);
      co_await comm::CopyTensorP2P(*world_, world_->device(r),
                                   v_shards_[static_cast<size_t>(r)],
                                   v_buf_[cur]);
    }
    // Send current chunk to the next rank's alternate buffer while
    // computing on it (the overlap RingAttention does achieve).
    if (s < R - 1) {
      Tensor k_dst = k_buf_[static_cast<size_t>(next * 2 + ((s + 1) % 2))];
      Tensor v_dst = v_buf_[static_cast<size_t>(next * 2 + ((s + 1) % 2))];
      ctx.comm_stream->Enqueue(
          [this, r, cur, k_dst]() mutable -> sim::Coro {
            co_await comm::CopyTensorP2P(*world_, world_->device(r),
                                         k_buf_[cur], k_dst);
          });
      ctx.comm_stream->Enqueue(
          [this, r, cur, v_dst]() mutable -> sim::Coro {
            co_await comm::CopyTensorP2P(*world_, world_->device(r),
                                         v_buf_[cur], v_dst);
          });
    }
    compute::FlashOptions opt;
    opt.block_q = cfg_.block_q;
    opt.block_kv = cfg_.block_kv;
    // Public blockwise-attention kernels (RingAttention's steps) reach
    // roughly half of a tuned flash kernel's throughput, and every step
    // repeats the softmax-merge rescale.
    opt.throughput_factor = 0.55;
    opt.name = "ring_attn.step";
    compute::LaunchFlashAttention(ctx, *ctx.stream, q_[static_cast<size_t>(r)],
                                  k_buf_[cur], v_buf_[cur], scratch, opt);
    // Host-driven step boundary: sync both streams, then a rendezvous so
    // no rank reads a buffer before its producer rewrote it.
    co_await ctx.stream->Synchronize();
    co_await ctx.comm_stream->Synchronize();
    co_await world_->barrier().Arrive();
    (void)nxt;
  }
  // Functional result: full-softmax over the gathered KV (equivalent to the
  // online partial merges).
  if (world_->functional()) {
    Tensor kf = Tensor::Alloc(world_->device(r), "ring_attn.kf",
                              {cfg_.batch_heads, cfg_.seq, cfg_.head_dim},
                              DType::kBF16);
    Tensor vf = Tensor::Alloc(world_->device(r), "ring_attn.vf",
                              {cfg_.batch_heads, cfg_.seq, cfg_.head_dim},
                              DType::kBF16);
    for (int p = 0; p < R; ++p) {
      Tensor kd = kf.Slice(1, p * s_per, s_per);
      Tensor vd = vf.Slice(1, p * s_per, s_per);
      CopyTensor(k_shards_[static_cast<size_t>(p)], kd);
      CopyTensor(v_shards_[static_cast<size_t>(p)], vd);
    }
    compute::AttentionRef(q_[static_cast<size_t>(r)], kf, vf,
                          out_[static_cast<size_t>(r)]);
  }
}

}  // namespace tilelink::baselines
