// Fused GEMM + hierarchical ReduceScatter — the first multi-node fused
// kernel, and the first with a FabricBinding::kNic role.
//
// One launched kernel per rank of an (nodes x per_node) world, four roles
// on the unified link-role layer:
//   gemm        compute role: partial [M, N] tiles, per-row-chunk notifies
//               (the shared producer of kernels/gemm_producer.h)
//   ring        NVLink ring role: node-local ring RS over the GEMM partials
//               (BuildRingReduceScatter with group_size = per_node,
//               seg_blocks = nodes) — rank (n, l) ends with the *node*
//               partial of every block with local index l, releasing each
//               reduced chunk through `final_notify`
//   rail        NIC rail role (FabricBinding::kNic): pushes node-reduced
//               chunks to the rail peer (n', l) as the ring finishes them;
//               `staging_depth` blocks per peer keep that many NIC messages
//               in flight, clamped by the queue-pair budget
//   rail_reduce folds rail arrivals into the own-node partial and stores
//               the fully reduced output block
//
// GEMM epilogue tiles feed the ring while the rail drains completed
// intra-node reductions — compute, NVLink stage and NIC stage all overlap
// at tile granularity, instead of composing GEMM-then-HierRS at the layer
// level. Degenerate topologies keep the structure honest: at 1 x N there is
// no rail and the kernel *is* GemmRs (makespan-identical, pinned by test);
// at N x 1 (multi-node, one rank per node) there is no ring and the rail
// feeds straight off the GEMM producer channels; at 1 x 1 the ring
// degenerates to the final-only path that moves the partial into out.
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

struct GemmHierRsConfig {
  int64_t m = 0;  // global rows (world_size * m_per_rank)
  int64_t k = 0;  // local reduction dim (already sharded)
  int64_t n = 0;  // output columns
  compute::GemmTiling gemm{128, 256, 64};
  int rs_block_m = 128;      // NVLink ring chunk rows
  int nic_chunk_blocks = 2;  // ring chunks per NIC rail message (the
                             // nic_chunk_tiles knob at kernel granularity;
                             // the last rail chunk may be ragged)
  int staging_depth = 2;     // NIC messages in flight per rail peer
  int comm_sms = 20;         // NVLink ring role SMs
  int reduce_sms = 8;        // rail reduce role SMs
  bool dma_push = false;     // hybrid: ring reduction on SMs, push on DMA
  TileOrder order = TileOrder::kNextRankFirst;
  std::string name = "gemm_hier_rs";
};

class GemmHierRs : public FusedKernelBase {
 public:
  GemmHierRs(rt::World& world, const GemmHierRsConfig& config);

  comm::SymTensor& a() { return a_; }                // [M, K] per rank
  comm::SymTensor& b() { return b_; }                // [K, N] per rank
  comm::SymTensor& gemm_out() { return gemm_out_; }  // [M, N] partials
  comm::SymTensor& out() { return out_; }            // [M/R, N] reduced

  const StaticMapping& mapping() const { return map_; }
  // Rail staging depth actually granted by the NIC channel budget.
  int rail_blocks() const { return rail_blocks_; }
  const OverlapSpec& overlap_spec() const { return overlap_spec_; }
  const OverlapPlan& overlap_plan() const { return overlap_plan_; }

 private:
  OverlapSpec BuildOverlapSpec(bool ring, bool rail, int64_t m_per_rank,
                               int64_t gemm_tiles, int64_t cpb_ring,
                               int64_t cpb_rail) const;

  GemmHierRsConfig cfg_;
  StaticMapping map_;  // producer channels over gemm_out rows
  int nodes_ = 1, per_node_ = 1;
  int rail_blocks_ = 0;
  comm::SymTensor a_, b_, gemm_out_, ring_staging_, ring_out_, rail_staging_,
      out_;
  OverlapSpec overlap_spec_;
  OverlapPlan overlap_plan_;
};

}  // namespace tilelink::tl
