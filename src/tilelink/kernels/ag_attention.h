// AllGather-KV + self-attention overlapped kernel (paper Figure 6;
// sequence-parallel attention). Communication runs on copy engines driven by
// host primitives (rank_copy_data + rank_notify) on a separate stream; the
// FlashAttention kernel's consumer waits target the host signal space, so
// each query block starts consuming a KV segment the moment its DMA lands.
// KV segments are visited in ring order starting at this rank's right
// neighbor, matching the copy issue order.
#pragma once

#include <string>

#include "comm/collectives.h"
#include "runtime/world.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/builder/tile_deps.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct AgAttentionConfig {
  int64_t batch_heads = 0;  // B * H
  int64_t seq = 0;          // total sequence length (KV)
  int64_t head_dim = 128;
  int block_q = 128;
  int block_kv = 128;
  // Relative throughput vs. tuned flash (1.0); the Torch baseline uses
  // a de-rated value through baselines/, not here.
  double throughput_factor = 1.0;
  bool skip_comm = false;  // measure compute only (all channels pre-set)
  bool comm_only = false;  // measure the DMA AllGather only
  std::string name = "ag_attention";
};

class AgAttention : public FusedKernelBase {
 public:
  AgAttention(rt::World& world, const AgAttentionConfig& config);

  comm::SymTensor& q() { return q_; }                // [BH, S/R, D] local
  comm::SymTensor& k_shards() { return k_shards_; }  // [BH, S/R, D]
  comm::SymTensor& v_shards() { return v_shards_; }
  comm::SymTensor& k() { return k_; }                // [BH, S, D] gathered
  comm::SymTensor& v() { return v_; }
  comm::SymTensor& out() { return out_; }            // [BH, S/R, D]

  const OverlapSpec& overlap_spec() const { return overlap_spec_; }
  const OverlapPlan& overlap_plan() const { return overlap_plan_; }

 protected:
  std::optional<sim::Coro> HostComm(rt::RankCtx& ctx) override;
  bool LaunchesDevice() const override { return !cfg_.comm_only; }

 private:
  BlockProgram BuildFlash();
  sim::Coro DmaAllGatherKv(rt::RankCtx& ctx);

  AgAttentionConfig cfg_;
  comm::SymTensor q_, k_shards_, v_shards_, k_, v_, out_;
  OverlapSpec overlap_spec_;
  OverlapPlan overlap_plan_;
};

}  // namespace tilelink::tl
