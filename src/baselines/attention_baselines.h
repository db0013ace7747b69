// Sequence-parallel attention baselines (Figure 10):
//  - TorchAttention: NCCL AllGather of KV, then the framework's eager
//    (non-flash) attention pipeline — modeled as the same attention kernel
//    de-rated to ~1/5 of flash throughput (separate softmax stages, score
//    materialization in HBM).
//  - RingAttention: flash attention over ring-passed KV chunks; every step
//    is host-driven (kernel launch + P2P of the next chunk + stream syncs),
//    so each ring step exposes launch/sync bubbles and the first chunk's
//    transfer is not hidden.
// TileLink's overlapped version is tilelink/kernels/ag_attention.
#pragma once

#include "comm/collectives.h"
#include "compute/flash_attention.h"
#include "runtime/world.h"

namespace tilelink::baselines {

struct AttentionConfig {
  int64_t batch_heads = 0;
  int64_t seq = 0;
  int64_t head_dim = 128;
  int block_q = 128;
  int block_kv = 128;
};

class TorchAttention {
 public:
  TorchAttention(rt::World& world, const AttentionConfig& config);
  comm::SymTensor& q() { return q_; }
  comm::SymTensor& k_shards() { return k_shards_; }
  comm::SymTensor& v_shards() { return v_shards_; }
  comm::SymTensor& out() { return out_; }
  sim::Coro Run(rt::RankCtx& ctx);

 private:
  rt::World* world_;
  AttentionConfig cfg_;
  comm::SymTensor q_, k_shards_, v_shards_, k_, v_, out_;
};

// Ring attention: timing is fully simulated (per-step kernels, ring P2P,
// host syncs). Numerics: each step's flash partial is combined with the
// running output using the standard log-sum-exp merge.
class RingAttention {
 public:
  RingAttention(rt::World& world, const AttentionConfig& config);
  comm::SymTensor& q() { return q_; }
  comm::SymTensor& k_shards() { return k_shards_; }
  comm::SymTensor& v_shards() { return v_shards_; }
  comm::SymTensor& out() { return out_; }
  sim::Coro Run(rt::RankCtx& ctx);

 private:
  rt::World* world_;
  AttentionConfig cfg_;
  comm::SymTensor q_, k_shards_, v_shards_, k_buf_, v_buf_, out_;
};

}  // namespace tilelink::baselines
