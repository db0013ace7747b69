// AllGather + GEMM overlapped kernel (tensor-parallel MLP part 1; paper
// §5/§7.2). The communication role gathers row tiles of the sharded
// activation into every rank's full copy and notifies per-channel barriers;
// GEMM consumer tiles wait only for the channels covering their rows, so
// compute starts as soon as its inputs land.
//
// Decoupled design space knobs (§3.1), all searchable via TuningSpace:
//  - comm tile size (comm_tile_m) is independent of the GEMM tiling;
//  - comm resource: SM pull blocks, SM push blocks, or DMA copy engines
//    driven by host primitives;
//  - compute tile order: which rank's rows the GEMM visits first.
//
// The role schedule is derived by the OverlapPlanner from a declarative
// OverlapSpec (tile_deps.h).
#pragma once

#include <string>

#include "comm/collectives.h"
#include "compute/gemm.h"
#include "runtime/world.h"
#include "tilelink/builder/comm_roles.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/builder/tile_deps.h"
#include "tilelink/kernels/kernel_common.h"
#include "tilelink/mapping.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct AgGemmConfig {
  int64_t m = 0;  // global rows (gathered)
  int64_t k = 0;  // reduction dim
  int64_t n = 0;  // local output columns (already sharded)
  compute::GemmTiling gemm{128, 256, 64};
  int comm_tile_m = 128;
  int channels_per_rank = 0;  // 0 -> one channel per comm tile
  CommResource comm = CommResource::kDma;
  int comm_sms = 20;  // SM-comm variants only
  TileOrder order = TileOrder::kOwnerFirst;  // GEMM m-tile visit order
  std::string name = "ag_gemm";
};

// One instance owns the symmetric buffers, barrier channels and the compiled
// kernel. Usage: construct, fill a_shards()/b(), then RunSpmd(Run).
class AgGemm : public FusedKernelBase {
 public:
  AgGemm(rt::World& world, const AgGemmConfig& config);

  comm::SymTensor& a_shards() { return a_shards_; }  // [M/R, K] per rank
  comm::SymTensor& a_full() { return a_full_; }      // [M, K] per rank
  comm::SymTensor& b() { return b_; }                // [K, N] per rank
  comm::SymTensor& c() { return c_; }                // [M, N] per rank

  const StaticMapping& mapping() const { return map_; }
  const OverlapSpec& overlap_spec() const { return overlap_spec_; }
  const OverlapPlan& overlap_plan() const { return overlap_plan_; }

 protected:
  std::optional<sim::Coro> HostComm(rt::RankCtx& ctx) override;

 private:
  BlockProgram BuildCompute();
  RowAllGatherParams AllGatherParams() const;

  AgGemmConfig cfg_;
  StaticMapping map_;
  comm::SymTensor a_shards_, a_full_, b_, c_;
  OverlapSpec overlap_spec_;
  OverlapPlan overlap_plan_;
};

}  // namespace tilelink::tl
