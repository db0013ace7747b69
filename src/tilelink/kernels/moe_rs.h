// GroupGEMM + Scatter + TopkReduce + ReduceScatter overlapped kernel (MoE
// layer part 2, paper §7.2 / Figure 9). Three roles form an extended
// producer-consumer chain inside ONE fused kernel:
//   group_gemm  -- produces expert outputs in slot order, notifies pc1
//                  channels over the sorted-slot space;
//   topk_reduce -- combines each token's topk expert rows (dynamic-mapping
//                  waits on pc1), notifies pc2 channels over token rows;
//   rs          -- ring ReduceScatter of the partial token sums across
//                  ranks (consumer waits on pc2, peer signals around the
//                  ring), with optional DMA push (hybrid mapping).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "compute/gemm.h"
#include "compute/moe_routing.h"
#include "runtime/world.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/builder/tile_deps.h"
#include "tilelink/mapping.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct MoeRsConfig {
  int64_t m = 0;       // global tokens
  int64_t k = 0;       // local reduction dim (I / R)
  int64_t hidden = 0;  // output feature dim H
  int num_experts = 0;
  int topk = 0;
  compute::GemmTiling gemm{128, 128, 64};
  int sorted_channel_rows = 512;  // pc1 granularity over sorted slots
  int reduce_block_tokens = 64;   // topk-reduce chunk
  int reduce_sms = 16;
  int rs_block_m = 128;  // RS chunk rows over token space
  int comm_sms = 20;
  bool dma_push = false;
  std::string name = "moe_rs";
};

class MoeRs : public FusedKernelBase {
 public:
  MoeRs(rt::World& world, const MoeRsConfig& config,
        const compute::MoeRouting& routing);

  comm::SymTensor& acts() { return acts_; }        // [M*topk, K] slot order
  comm::SymTensor& weights() { return weights_; }  // [E, K, H]
  comm::SymTensor& exp_out() { return exp_out_; }  // [M*topk, H] partial
  comm::SymTensor& token_partial() { return token_partial_; }  // [M, H]
  comm::SymTensor& out() { return out_; }          // [M/R, H] reduced

  // Per topk-reduce chunk: the pc1 channels it waits on (dynamic mapping).
  const DynamicMapping& reduce_wait_table() const { return *reduce_waits_; }
  const OverlapSpec& overlap_spec() const { return overlap_spec_; }
  const OverlapPlan& overlap_plan() const { return overlap_plan_; }

 private:
  BlockProgram BuildGroupGemm();
  BlockProgram BuildTopkReduce();

  MoeRsConfig cfg_;
  // Routing, expert tiles and wait tables are read-only once built: the
  // kernel keeps one copy of each, shared with the program lambdas.
  std::shared_ptr<const compute::MoeRouting> routing_;
  std::shared_ptr<const std::vector<compute::GroupBlock>> group_blocks_;
  int num_pc1_ = 0;  // channels over sorted-slot space
  int num_pc2_ = 0;  // channels over token space (offset by num_pc1_)
  std::vector<uint64_t> pc1_thresholds_;  // group blocks per pc1 channel
  // Per reduce-chunk wait tables.
  std::shared_ptr<const DynamicMapping> reduce_waits_;
  comm::SymTensor acts_, weights_, exp_out_, token_partial_, staging_, out_;
  OverlapSpec overlap_spec_;
  OverlapPlan overlap_plan_;
};

}  // namespace tilelink::tl
