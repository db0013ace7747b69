// GEMM + ReduceScatter overlapped kernel (paper Figure 4; tensor-parallel
// MLP part 2): one kernel over the topology. The GEMM role produces partial
// sums of [M, N] and notifies per-row-chunk producer-consumer barriers; the
// ring-RS role consumes chunks as they complete, accumulates partials
// around the ring with peer_tile_notify/wait, and scatters the reduced rows
// to their owners. The push may be SM-driven or DMA (hybrid mapping — the
// variant the paper reports as TileLink's best result for GEMM+RS).
//
// One launched kernel per rank of an (nodes x per_node) world; the planner
// maps the reduction onto the fabric:
//   gemm        compute role: partial [M, N] tiles, per-row-chunk notifies
//               (the shared producer of kernels/gemm_producer.h)
//   rs          NVLink ring role: node-local ring RS over the GEMM partials
//               (BuildRingReduceScatter with group_size = per_node,
//               seg_blocks = nodes) — rank (n, l) ends with the *node*
//               partial of every block with local index l, releasing each
//               reduced chunk through `final_notify` when a rail follows
//   rail        NIC rail role (FabricBinding::kNic), only when the world
//               spans nodes: pushes node-reduced chunks to the rail peer
//               (n', l) as the ring finishes them; `staging_depth` blocks
//               per peer keep that many NIC messages in flight, clamped by
//               the queue-pair budget
//   rail_reduce folds rail arrivals into the own-node partial and stores
//               the fully reduced output block
//
// On one node (1 x N) there is no rail: the ring spans the whole world and
// the rail knobs (nic_chunk_blocks, staging_depth, reduce_sms) are unused.
// Across nodes, compute, NVLink stage and NIC stage all overlap at tile
// granularity instead of composing GEMM-then-HierRS at the layer level.
// At N x 1 (one rank per node) there is no ring and the rail feeds straight
// off the GEMM producer channels; at 1 x 1 the ring degenerates to the
// final-only path that moves the partial into out.
#pragma once

#include <string>

#include "comm/collectives.h"
#include "compute/gemm.h"
#include "runtime/world.h"
#include "sim/machine_spec.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/builder/tile_deps.h"
#include "tilelink/mapping.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct GemmRsConfig {
  int64_t m = 0;  // global rows (world_size * m_per_rank)
  int64_t k = 0;  // local reduction dim (already sharded)
  int64_t n = 0;  // output columns
  compute::GemmTiling gemm{128, 256, 64};
  int rs_block_m = 128;      // ring chunk rows — decoupled from gemm.bm
  int nic_chunk_blocks = 2;  // ring chunks per NIC rail message (the
                             // nic_chunk_tiles knob at kernel granularity;
                             // the last rail chunk may be ragged)
  int staging_depth = 2;     // NIC messages in flight per rail peer
  int comm_sms = 20;         // ring role SMs
  int reduce_sms = 8;        // rail reduce role SMs
  bool dma_push = false;     // hybrid: ring reduction on SMs, push on DMA
  // GEMM m-tile visit order: produce the segment the ring consumes first.
  TileOrder order = TileOrder::kNextRankFirst;
  std::string name = "gemm_rs";
};

// The declarative form GemmRs plans on `spec`: gemm -> rs, then rail ->
// rail_reduce when the world spans nodes. Roles are declared in claim
// order. The tuning layer plans it to read a candidate's SM claims without
// building the kernel.
OverlapSpec GemmRsOverlapSpec(const sim::MachineSpec& spec,
                              const GemmRsConfig& cfg);

class GemmRs : public FusedKernelBase {
 public:
  GemmRs(rt::World& world, const GemmRsConfig& config);

  comm::SymTensor& a() { return a_; }                // [M, K] per rank
  comm::SymTensor& b() { return b_; }                // [K, N] per rank
  comm::SymTensor& gemm_out() { return gemm_out_; }  // [M, N] partials
  comm::SymTensor& out() { return out_; }            // [M/R, N] reduced

  const StaticMapping& mapping() const { return map_; }
  // Rail staging depth actually granted by the NIC channel budget (0 on
  // one node).
  int rail_blocks() const { return rail_blocks_; }
  const OverlapSpec& overlap_spec() const { return overlap_spec_; }
  const OverlapPlan& overlap_plan() const { return overlap_plan_; }

 private:
  GemmRsConfig cfg_;
  StaticMapping map_;  // producer channels over gemm_out rows
  int rail_blocks_ = 0;
  comm::SymTensor a_, b_, gemm_out_, ring_staging_, ring_out_, rail_staging_,
      out_;
  OverlapSpec overlap_spec_;
  OverlapPlan overlap_plan_;
};

}  // namespace tilelink::tl
