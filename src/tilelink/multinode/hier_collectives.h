// Hierarchical tile-granular collectives over the two-fabric machine.
//
// The flow-level Network always modeled both fabrics (NVLink within a node,
// NICs across nodes), but every collective above it was single-fabric: a
// flat ring over the world treats the two NIC hops of a 2x8 ring like
// NVLink hops and bottlenecks on them. These collectives split the work
// into an intra-node NVLink ring stage and an inter-node NIC "rail"
// exchange stage (rank (node, l) talks to (node', l)), pipelined against
// each other at tile granularity: a NIC chunk enters the NVLink ring as
// soon as it lands, and a reduced chunk leaves for the rail peer as soon
// as the ring finishes it. The flat baseline is the one-ring layout
// (RingLayout::kOneRing): the same collectives over one node of all ranks,
// so the rail stage is empty and the ring spans the world (T3/Syncopate
// both show the gap between the two is the point of modeling the hierarchy
// at all).
//
// The chunk-pipeline machinery itself — windowed sends, in-order arrival
// publication, payload/checker instrumentation — is the builder layer's
// tile-centric link roles (tilelink/builder/link_roles.h): each collective
// instantiates a NicRailRole and/or NvlinkRingRole and describes its chunk
// schedule (gates + payload runs) per stream. Fused kernels run the same
// roles as OverlapPlanner-sized device roles (kernels/gemm_hier_rs).
//
// Two modes:
//  * Timing-only (default): `num_tiles` tiles of `tile_bytes` per rank move
//    through the fabric models, no tensor payloads — the granularity the
//    multi-node e2e path and the autotuner need.
//  * Functional payload mode (AttachPayload on a functional World): every
//    chunk additionally moves `tile_elems` fp32 values per tile through
//    real buffers, each chunk send registers a write interval and each
//    forward/reduce a read probe on the World's ConsistencyChecker, and the
//    result is verifiable bit-exactly against the single-rank references
//    below. Payload mode adds no simulated time: makespans are identical
//    with it on or off.
//
// SPMD usage: construct once outside World::RunSpmd, co_await Run(ctx) on
// every rank. Objects are single-shot.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/world.h"
#include "sim/coro.h"
#include "sim/flag.h"
#include "tilelink/builder/link_roles.h"
#include "tilelink/builder/tuning_space.h"

namespace tilelink::multinode {

// The in-order chunk-arrival signal now lives with the link roles in the
// builder layer; collectives keep addressing it under its historical name.
using tl::InOrderSignal;

// Knobs of the multi-node design space (the TuningSpace::MultiNode() axes
// plus the intra-node channel width the single-node kernels already tune).
struct HierConfig {
  int nic_chunk_tiles = 4;   // tiles per NIC message
  int staging_depth = 2;     // NIC messages in flight per peer (clamped by
                             // the ResourceBudget NIC channel budget)
  int intra_chunk_tiles = 2; // tiles per NVLink ring message
  int intra_channels = 4;    // NVLink ring messages in flight
  int reduce_sms = 20;       // SMs billed for reduction epilogues

  static HierConfig FromCandidate(const tl::TuneCandidate& c);

  // Rejects non-positive chunk sizes, window depths and SM counts up front
  // with a clear message instead of failing deep inside a chunk loop.
  void Validate() const;
};

// The rank layout a two-stage collective runs over.
//  * kNodes: the machine's nodes. An NVLink ring runs inside each node and
//    rail peers (node, l) <-> (node', l) exchange over the NIC. Dense
//    topologies only.
//  * kOneRing: one node of all ranks in global-id order. The rail stage is
//    empty and the ring spans the world; its node-boundary hops cross the
//    NIC and throttle the whole ring. This is the flat single-stage
//    baseline, and it runs on ragged topologies too.
enum class RingLayout { kNodes, kOneRing };

// Two-stage AllGather: every rank contributes num_tiles tiles; every rank
// ends holding all world_size * num_tiles tiles. Stage 1 exchanges shards
// between rail peers over the NIC; stage 2 runs a chunked ring over each
// node's ranks, forwarding rail tiles as they land.
class HierAllGather {
 public:
  HierAllGather(rt::World& world, int64_t num_tiles, uint64_t tile_bytes,
                const HierConfig& cfg,
                RingLayout layout = RingLayout::kNodes);
  sim::Coro Run(rt::RankCtx& ctx);

  // Functional payload mode: in[r] is rank r's shard (num_tiles *
  // tile_elems fp32), out[r] receives all world_size blocks in global-rank
  // order. Requires a functional World; call before Run.
  void AttachPayload(std::vector<rt::Buffer*> in,
                     std::vector<rt::Buffer*> out, int64_t tile_elems);

  // Effective per-peer NIC staging depth after the channel-budget clamp.
  int effective_staging_depth() const { return rail_role_.window(); }

 private:
  sim::Coro RailSend(rt::RankCtx& ctx, int peer);
  sim::Coro RingSend(rt::RankCtx& ctx);
  bool payload() const { return tile_elems_ > 0; }

  rt::World& world_;
  int64_t num_tiles_;
  uint64_t tile_bytes_;
  HierConfig cfg_;
  int nodes_, per_node_;
  tl::NicRailRole rail_role_;
  tl::NvlinkRingRole ring_role_;
  // rail_[r][k]: tiles arrived at rank r from its k-th rail peer (node
  // order, own node skipped).
  std::vector<std::vector<std::unique_ptr<InOrderSignal>>> rail_;
  // ring_[r]: tiles arrived at rank r from its left ring neighbor, in the
  // ring send-sequence order.
  std::vector<std::unique_ptr<InOrderSignal>> ring_;
  // Payload mode.
  std::vector<rt::Buffer*> in_, out_;
  int64_t tile_elems_ = 0;
};

// Two-stage ReduceScatter: every rank holds world_size * num_tiles partial
// tiles; rank r ends with its num_tiles fully reduced. Stage 1 ring-reduces
// within the node over NVLink (rank (n, l) accumulates the node's partial
// for every block with local index l); stage 2 exchanges node partials
// between rail peers over the NIC and reduces on arrival.
class HierReduceScatter {
 public:
  HierReduceScatter(rt::World& world, int64_t num_tiles, uint64_t tile_bytes,
                    const HierConfig& cfg,
                    RingLayout layout = RingLayout::kNodes);
  sim::Coro Run(rt::RankCtx& ctx);

  // Functional payload mode: in[r] holds one partial tile-block per
  // destination rank in global-rank order (world_size * num_tiles *
  // tile_elems fp32); out[r] receives rank r's fully reduced block
  // (num_tiles * tile_elems). Requires a functional World; call before Run.
  void AttachPayload(std::vector<rt::Buffer*> in,
                     std::vector<rt::Buffer*> out, int64_t tile_elems);

 private:
  sim::Coro RingSend(rt::RankCtx& ctx);
  sim::Coro RingReducer(rt::RankCtx& ctx);
  sim::Coro RailSend(rt::RankCtx& ctx, int peer, int peer_index);
  sim::Coro RailReducer(rt::RankCtx& ctx);
  sim::Coro OwnContribution(rt::RankCtx& ctx);  // payload mode only
  bool payload() const { return tile_elems_ > 0; }

  rt::World& world_;
  int64_t num_tiles_;
  uint64_t tile_bytes_;
  HierConfig cfg_;
  int nodes_, per_node_;
  int64_t group_tiles_;  // nodes * num_tiles, one intra-ring group
  tl::NicRailRole rail_role_;
  tl::NvlinkRingRole ring_role_;
  std::vector<std::unique_ptr<InOrderSignal>> ring_;       // raw arrivals
  std::vector<std::unique_ptr<sim::Flag>> ring_reduced_;   // after reduce
  std::vector<std::vector<std::unique_ptr<InOrderSignal>>> rail_;
  // Trace-only: pairs ring_reduced_ publications with flow arrows so a rail
  // chunk's span binds the reducer span that unblocked it (the middle link
  // of the producer -> ring -> reduce -> rail -> reduce chain).
  std::vector<std::unique_ptr<tl::FlowLedger>> ring_red_ledger_;
  // Payload mode: ring arrival/accumulation area ((per_node-1)*group_tiles
  // tiles, one slot per arrival position) and per-source rail staging.
  std::vector<rt::Buffer*> in_, out_;
  std::vector<rt::Buffer*> ring_acc_;
  std::vector<std::vector<rt::Buffer*>> rail_acc_;
  int64_t tile_elems_ = 0;
};

// Cross-node data-parallel AllReduce: each rank holds `num_tiles` gradient
// tiles replicated across its DP group {(node, l) : node} — the 16-GPU
// TP8 x DP2 layout, where the group never leaves the NIC. Tile-granular
// ReduceScatter + AllGather within the group, every member's NIC port
// active in both directions, reduces overlapped with the wire at chunk
// granularity.
class DpAllReduce {
 public:
  DpAllReduce(rt::World& world, int64_t num_tiles, uint64_t tile_bytes,
              const HierConfig& cfg);
  sim::Coro Run(rt::RankCtx& ctx);

  // Functional payload mode: in[r] is rank r's gradient (num_tiles *
  // tile_elems fp32); out[r] receives the group sum. Requires a functional
  // World; call before Run. A FaultPlan::ReorderRailChunk fault applies to
  // the ReduceScatter phase (the AllGather phase has no downstream consumer
  // inside the collective to race with).
  void AttachPayload(std::vector<rt::Buffer*> in,
                     std::vector<rt::Buffer*> out, int64_t tile_elems);

  int effective_staging_depth() const { return rail_role_.window(); }

 private:
  sim::Coro SendToPeer(rt::RankCtx& ctx, int peer, bool rs_phase);
  sim::Coro Reducer(rt::RankCtx& ctx);
  bool payload() const { return tile_elems_ > 0; }

  rt::World& world_;
  int64_t num_tiles_;
  uint64_t tile_bytes_;
  HierConfig cfg_;
  int nodes_, per_node_;
  tl::NicRailRole rail_role_;
  std::vector<std::vector<std::unique_ptr<InOrderSignal>>> rs_arrived_;
  std::vector<std::unique_ptr<sim::Flag>> block_reduced_;
  std::vector<std::vector<std::unique_ptr<InOrderSignal>>> ag_arrived_;
  // Payload mode: per-source staging for the RS phase of the own block.
  std::vector<rt::Buffer*> in_, out_;
  std::vector<std::vector<rt::Buffer*>> rs_acc_;
  int64_t tile_elems_ = 0;
};

// ---- Single-rank payload references ---------------------------------------
// fp32, rank-ordered accumulation; bit-exact against the collectives for
// integer-valued inputs (see FillIntLattice) regardless of the collectives'
// internal accumulation order.

// Concatenation of every rank's shard in global-rank order.
std::vector<float> RefAllGather(const std::vector<rt::Buffer*>& in);
// Sum over ranks of in[p]'s block for `rank` (block_elems fp32 per block).
std::vector<float> RefReduceScatter(const std::vector<rt::Buffer*>& in,
                                    int rank, int64_t block_elems);
// Sum over rank's DP group {m * per_node + rank % per_node : m}.
std::vector<float> RefDpAllReduce(const std::vector<rt::Buffer*>& in,
                                  int per_node, int rank);

}  // namespace tilelink::multinode
