// GEMM + ring ReduceScatter overlapped kernel (paper Figure 4; tensor-
// parallel MLP part 2). The GEMM role produces partial sums of [M, N] and
// notifies per-row-chunk producer-consumer barriers; the ring-RS role (20
// SMs by default) consumes chunks as they complete, accumulates partials
// around the ring with peer_tile_notify/wait, and scatters the reduced rows
// to their owner ranks. The push may be SM-driven or DMA (hybrid mapping —
// the variant the paper reports as TileLink's best result for GEMM+RS).
#pragma once

#include <string>

#include "comm/collectives.h"
#include "compute/gemm.h"
#include "runtime/world.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/builder/tile_deps.h"
#include "tilelink/mapping.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct GemmRsConfig {
  int64_t m = 0;  // global rows (R * m_per_rank)
  int64_t k = 0;  // local reduction dim (already sharded)
  int64_t n = 0;  // output columns
  compute::GemmTiling gemm{128, 256, 64};
  int rs_block_m = 128;  // RS chunk rows — decoupled from gemm.bm
  int comm_sms = 20;
  bool dma_push = false;  // hybrid: reduction on SMs, scatter on DMA
  // GEMM m-tile visit order: produce the segment the ring consumes first.
  TileOrder order = TileOrder::kNextRankFirst;
  std::string name = "gemm_rs";
};

class GemmRs : public FusedKernelBase {
 public:
  GemmRs(rt::World& world, const GemmRsConfig& config);

  comm::SymTensor& a() { return a_; }                // [M, K] per rank
  comm::SymTensor& b() { return b_; }                // [K, N] per rank
  comm::SymTensor& gemm_out() { return gemm_out_; }  // [M, N] partials
  comm::SymTensor& out() { return out_; }            // [M/R, N] reduced

  const StaticMapping& mapping() const { return map_; }
  const OverlapSpec& overlap_spec() const { return overlap_spec_; }
  const OverlapPlan& overlap_plan() const { return overlap_plan_; }

 private:
  GemmRsConfig cfg_;
  StaticMapping map_;  // producer channels over gemm_out rows
  comm::SymTensor a_, b_, gemm_out_, staging_, out_;
  OverlapSpec overlap_spec_;
  OverlapPlan overlap_plan_;
};

}  // namespace tilelink::tl
