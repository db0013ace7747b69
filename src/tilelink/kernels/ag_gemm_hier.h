// Fused hierarchical AllGather + GEMM — the first kernel written only as an
// overlap spec for the planner, never as a hand schedule.
//
// Multi-node (nodes x per_node) topology, three generated roles:
//   ring  NVLink role (OverlapRoleKind::kHierAgRing): publishes the rank's
//         own activation chunks into its gathered buffer, then forwards
//         arrived blocks around the node-local ring — per_node - 1 stages,
//         each forwarding every node group's block with the stage's local
//         index, so NIC arrivals enter the intra-node ring as soon as the
//         rail lands them
//   rail  NIC role (OverlapRoleKind::kNicRailPush): pushes the rank's own
//         shard straight to its rail peer (same local index, other node)
//         gathered buffer — no staging hop; landing notifies the same
//         producer channels the ring and the consumer wait on
//   gemm  compute role: the shared AG+GEMM consumer (ag_consumer.h), each
//         tile gated only on the producer channels covering its rows
//
// Producer channels count (rank, chunk, strip): R * cpb * S channels, one
// increment each — own chunks from the publish, same-local-index blocks
// from the rail, everything else from the ring forward. The planner's
// column-split decision S (the small-m fix, applied over the K width here)
// keeps at least kMinRingChunksPerBlock chunks per block when m_per_rank
// is shallow.
//
// The topology must span at least two nodes (a single node runs the flat
// ag_gemm); at N x 1 the ring role degenerates to publish-only and the rail
// feeds the consumer directly.
#pragma once

#include <string>

#include "comm/collectives.h"
#include "compute/gemm.h"
#include "runtime/world.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/builder/overlap_gen.h"
#include "tilelink/builder/tile_deps.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct AgGemmHierConfig {
  int64_t m = 0;  // global rows (world_size * m_per_rank), gathered
  int64_t k = 0;  // reduction dim
  int64_t n = 0;  // output columns
  compute::GemmTiling gemm{128, 256, 64};
  int comm_tile_m = 128;     // AllGather chunk rows (must divide m_per_rank)
  int nic_chunk_blocks = 2;  // AllGather chunks per NIC rail message
  int staging_depth = 2;     // NIC messages in flight per rail peer
  int comm_sms = 20;         // ring role SMs
  TileOrder order = TileOrder::kOwnerFirst;
  std::string name = "ag_gemm_hier";
};

class AgGemmHier : public FusedKernelBase {
 public:
  AgGemmHier(rt::World& world, const AgGemmHierConfig& config);

  comm::SymTensor& a_shards() { return a_shards_; }  // [M/R, K] per rank
  comm::SymTensor& a_full() { return a_full_; }      // [M, K] gathered
  comm::SymTensor& b() { return b_; }                // [K, N] per rank
  comm::SymTensor& c() { return c_; }                // [M, N] per rank

  const OverlapSpec& overlap_spec() const { return overlap_spec_; }
  const OverlapPlan& overlap_plan() const { return overlap_plan_; }
  // Rail blocks actually granted by the NIC channel budget.
  int rail_blocks() const { return rail_blocks_; }
  // Planner column split over the K width.
  int col_splits() const { return col_splits_; }

 private:
  OverlapSpec BuildHierSpec(int64_t gemm_tiles, int64_t cpb) const;
  BlockProgram BuildHierRing(int S, int64_t cpb);
  BlockProgram BuildHierRail(int S, int64_t cpb, int64_t cpb_rail,
                             int64_t rail_rows);
  BlockProgram BuildConsumer(int S);

  AgGemmHierConfig cfg_;
  int nodes_ = 1, per_node_ = 1;
  int rail_blocks_ = 0;
  int col_splits_ = 1;
  comm::SymTensor a_shards_, a_full_, b_, c_;
  OverlapSpec overlap_spec_;
  OverlapPlan overlap_plan_;
};

}  // namespace tilelink::tl
