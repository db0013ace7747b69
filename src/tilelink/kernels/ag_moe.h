// AllGather + Gather + GroupGEMM overlapped kernel (paper Figure 5; MoE
// layer part 1). Token shards are gathered while expert group-GEMM tiles
// start as soon as *their* tokens arrive. Because dynamic routing decides
// which tokens each expert tile consumes, the consumer waits come from a
// DynamicMapping — lookup tables filled at runtime from the routing (§4.1).
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
#include "tilelink/kernels/kernel_common.h"
#include "tilelink/mapping.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct AgMoeConfig {
  int64_t m = 0;        // global tokens (gathered)
  int64_t hidden = 0;   // token feature dim (K of the group GEMM)
  int64_t n = 0;        // local expert output columns (I / R)
  int num_experts = 0;
  int topk = 0;
  compute::GemmTiling gemm{128, 128, 64};
  int comm_tile_m = 128;
  int channels_per_rank = 0;  // 0 -> one channel per comm tile
  CommResource comm = CommResource::kDma;
  int comm_sms = 20;
  std::string name = "ag_moe";
};

class AgMoe : public FusedKernelBase {
 public:
  // `routing` is the dynamic routing over the *gathered* token space [0, m).
  AgMoe(rt::World& world, const AgMoeConfig& config,
        const compute::MoeRouting& routing);

  comm::SymTensor& token_shards() { return token_shards_; }  // [M/R, H]
  comm::SymTensor& tokens() { return tokens_; }              // [M, H]
  comm::SymTensor& weights() { return weights_; }            // [E, H, N]
  comm::SymTensor& out() { return out_; }  // [M*topk, N] slot order

  const DynamicMapping& dynamic_mapping() const { return *dyn_; }
  const OverlapSpec& overlap_spec() const { return overlap_spec_; }
  const OverlapPlan& overlap_plan() const { return overlap_plan_; }

 protected:
  std::optional<sim::Coro> HostComm(rt::RankCtx& ctx) override;

 private:
  BlockProgram BuildGroupGemm();

  AgMoeConfig cfg_;
  // Routing, expert tiles and wait tables are read-only once built: the
  // kernel keeps one copy of each, shared with the program lambdas.
  std::shared_ptr<const compute::MoeRouting> routing_;
  StaticMapping map_;  // producer (AllGather) channels over token rows
  std::shared_ptr<const DynamicMapping> dyn_;  // consumer (expert tile) waits
  std::shared_ptr<const std::vector<compute::GroupBlock>> group_blocks_;
  comm::SymTensor token_shards_, tokens_, weights_, out_;
  OverlapSpec overlap_spec_;
  OverlapPlan overlap_plan_;
};

}  // namespace tilelink::tl
