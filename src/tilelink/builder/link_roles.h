// Tile-centric link roles: the chunk-pipeline machinery every multi-fabric
// communication stage shares, lifted out of the multinode collectives so
// the builder layer owns exactly one implementation of it.
//
// A *link role* is the communication half of a tile-centric pipeline on one
// fabric: tiles are grouped into chunks, at most `window` chunks are in
// flight at once (NVLink ring channels, NIC staging depth), each chunk's
// departure is gated on upstream tile readiness (a producer's notify, the
// previous pipeline stage's reduction), and each arrival is published to
// downstream consumers as a contiguous tile prefix (InOrderSignal). The two
// concrete roles mirror the FabricBinding variants a ResourceBudget caps:
//
//  * NvlinkRingRole (FabricBinding::kNvlink): ring stages — chunk size
//    `intra_chunk_tiles`, window `intra_channels`. A hop rides the fabric
//    its endpoints share: NVLink inside a node, the NIC across nodes.
//  * NicRailRole (FabricBinding::kNic): inter-node rail exchanges — chunk
//    size `nic_chunk_tiles`, window `staging_depth` clamped by the device's
//    NIC queue-pair budget (RailWindow), shared across the role's
//    concurrent peer exchanges.
//
// Each role has two forms with identical pipeline semantics:
//  * Host-driven streams (Stream() + RunLinkStream): coroutines driving
//    fabric transfers directly — the form the multinode collectives run.
//  * Device block programs (BuildNicRailPush / BuildNicRailReduce here,
//    BuildRingReduceScatter in kernels/ring_rs.h for the NVLink ring):
//    ConsumerTileWait/PeerTileWait gates, TilePushData chunk sends and
//    notify-on-landing, compiled and verified like any other role —
//    the form fused kernels run as OverlapPlanner-sized roles on their
//    FabricBinding (kernels/gemm_rs's rail is the first kNic user).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "comm/collectives.h"
#include "runtime/world.h"
#include "sim/coro.h"
#include "sim/flag.h"
#include "sim/network.h"
#include "tilelink/program.h"

namespace tilelink::tl {

// Per-sender chunk-completion reordering: flow completions under max-min
// sharing are only approximately FIFO, but downstream consumers must see a
// prefix ("tiles 0..k arrived"), so completions are published in order.
class InOrderSignal {
 public:
  InOrderSignal(sim::Simulator* sim, std::string name)
      : arrived_(sim, std::move(name)) {}

  // Marks chunk `index` (covering `tiles` tiles) complete; publishes every
  // contiguous finished prefix to the flag. When a trace recorder is
  // attached and set_trace_pid was called, every publication allocates a
  // flow id (its "s" point anchored at span_pid/span_tid — the caller's
  // current span — when given, else the signal's own lane) and bumps the
  // per-rank published-prefix watermark counter.
  void Complete(std::size_t index, int64_t tiles, int span_pid = -1,
                int span_tid = 0);

  // Consumes the flow arrow of the publication that first covered
  // `tiles_threshold` cumulative tiles: returns (flow id, flow name), or
  // (0, "") when untraced or already consumed. Each arrow binds exactly
  // once (pinned by tests/test_trace.cc).
  std::pair<uint64_t, std::string> TakeFlowCovering(uint64_t tiles_threshold);

  sim::Flag& tiles_arrived() { return arrived_; }
  const std::string& name() const { return arrived_.name(); }

  // Trace process the watermark counter and unanchored flow starts land on
  // (the receiver's rank pid). -1 (default) keeps the signal silent.
  void set_trace_pid(int pid) { trace_pid_ = pid; }
  int trace_pid() const { return trace_pid_; }

 private:
  sim::Flag arrived_;
  std::vector<int64_t> done_;  // tiles of chunk i, 0 = not yet complete
  std::size_t cursor_ = 0;
  int trace_pid_ = -1;
  // Publication ledger (trace only): cumulative tiles and flow id per
  // published chunk, in publication order.
  struct FlowEntry {
    uint64_t cum;
    uint64_t id;
  };
  std::vector<FlowEntry> flows_;
};

// Trace-only ledger pairing plain-Flag publications with flow arrows (the
// reducer -> rail-send bridge: the publisher is a cumulative Flag, not an
// InOrderSignal). The publisher registers (cumulative value, flow id); a
// downstream chunk consumes the arrow covering its gate threshold.
class FlowLedger {
 public:
  void Publish(uint64_t cum, uint64_t flow_id, std::string name) {
    entries_.push_back(Entry{cum, flow_id, std::move(name)});
  }
  std::pair<uint64_t, std::string> TakeCovering(uint64_t threshold) {
    for (Entry& e : entries_) {
      if (e.cum >= threshold && e.id != 0) {
        const uint64_t id = e.id;
        e.id = 0;
        return {id, e.name};
      }
    }
    return {0, std::string()};
  }

 private:
  struct Entry {
    uint64_t cum;
    uint64_t id;
    std::string name;
  };
  std::vector<Entry> entries_;
};

// One contiguous fp32 run moved by a payload chunk.
struct CopyRun {
  int64_t src_lo, dst_lo, elems;
};

// Payload + checker instrumentation for one chunk. Empty (world == nullptr)
// in timing-only mode, so the timing path allocates no strings or runs.
struct ChunkIo {
  rt::World* world = nullptr;
  rt::Buffer* src = nullptr;
  rt::Buffer* dst = nullptr;
  std::vector<CopyRun> runs;
  std::string reader;  // sender-side consume probe (reads of `src`)
  std::string writer;  // receiver-side write interval (writes of `dst`)
};

// Upstream readiness gate of one chunk: wait until `flag` reaches
// `threshold` (null flag: the chunk may leave immediately).
struct FlagGate {
  sim::Flag* flag = nullptr;
  uint64_t threshold = 0;
};

// One chunk of a link stream.
struct LinkChunk {
  int64_t tiles = 0;
  FlagGate gate;
  // §4.2 fault injection: publish the arrival signal when the send starts
  // instead of when the payload lands.
  bool eager_publish = false;
  ChunkIo io;
  // Trace-only: consumes the flow arrow of the upstream publication this
  // chunk's gate waited on, so the chunk's span binds the arrow's finish.
  // Unset (and never touched) in untraced runs.
  std::function<std::pair<uint64_t, std::string>()> take_flow;
};

// One windowed chunk stream over a fabric edge — the producer side of a
// link role. RunLinkStream walks chunks 0..num_chunks-1: await the chunk's
// gate, throttle to `window` chunks in flight, then launch the transfer;
// each landing publishes the receiver-side InOrderSignal and returns the
// stream's window credit. Completes when every chunk has landed.
struct LinkStream {
  sim::Network* fabric = nullptr;
  int src = -1;
  int dst = -1;
  uint64_t tile_bytes = 0;
  int window = 1;
  InOrderSignal* arrival = nullptr;
  std::string name;              // sender-side drain flag name
  const char* chunk_label = "";  // spawned transfer coroutine label
  int64_t num_chunks = 0;
  std::function<LinkChunk(int64_t)> chunk;

  // (chunk index, attempt) -> rail, or -1 to let the fabric pick the
  // least-loaded live rail. LinkRole::Stream installs the rail scheduler
  // here on multi-rail fabrics; retries always pass attempt > 0 so
  // failover re-picks among survivors. Ack deadline, retry budget and
  // backoff are the fabric's (Network::AckTimeout / FailedAttempt).
  std::function<int(int64_t, int)> rail_of;
  // Trace process id of the sender rank (-1: stream untraced). Role
  // Stream() builders fill it from World::trace_pid(src); chunk spans,
  // window-occupancy counters and flow finishes all land on it.
  int trace_pid = -1;
};

sim::Coro RunLinkStream(sim::Simulator* sim, LinkStream stream);

// What the two host-driven link roles share: a chunk size, a window and
// the Stream() builder. Stream() binds the role's fabric and, on a
// multi-rail fabric, installs the self-healing rail scheduler (chunks
// apportioned across rails by surviving bandwidth via WeightedExtents,
// re-planned whenever rail health changes, retries falling over to the
// least-loaded live rail).
class LinkRole {
 public:
  int chunk_tiles() const { return chunk_tiles_; }
  int window() const { return window_; }

  LinkStream Stream(int src, int dst, uint64_t tile_bytes,
                    InOrderSignal* arrival, std::string name,
                    const char* chunk_label, int64_t num_chunks,
                    std::function<LinkChunk(int64_t)> chunk) const;

 protected:
  LinkRole(rt::World& world, FabricBinding fabric, int chunk_tiles,
           int window);

 private:
  rt::World* world_;
  FabricBinding fabric_;
  int chunk_tiles_;
  int window_;
};

// Ring link role (host-driven form), window = `channels`. Each hop rides
// the fabric its endpoints share (World::fabric_for): every hop of a
// node-local ring is NVLink, while a ring that spans nodes (the one-ring
// flat baseline) sends its node-boundary hops over the NIC. The
// device-program form of the same role is kernels/ring_rs.h's
// BuildRingReduceScatter, which fused kernels run as a planned
// FabricBinding::kNvlink role.
class NvlinkRingRole : public LinkRole {
 public:
  static constexpr FabricBinding kFabric = FabricBinding::kNvlink;

  NvlinkRingRole(rt::World& world, int chunk_tiles, int channels);
};

// Inter-node NIC rail link role (host-driven form): one stream per rail
// peer, window = per-peer staging depth after the NIC queue-pair budget
// clamp (`peers` concurrent exchanges share the device's budget).
class NicRailRole : public LinkRole {
 public:
  static constexpr FabricBinding kFabric = FabricBinding::kNic;

  NicRailRole(rt::World& world, int chunk_tiles, int staging_depth,
              int peers);
};

// ---------------------------------------------------------------------------
// Device-program form of the NIC rail role (fused kernels)
// ---------------------------------------------------------------------------

// NIC rail push: each comm block walks its share of (peer node, chunk) work
// items — wait for the node-reduced chunk (ConsumerTileWait on a caller-
// supplied spec, typically the ring role's completion channels), acquire-
// load it, then tile_push_data it across the NIC to the rail peer and
// notify the peer's rail arrival channel with release semantics once it
// lands. The planner binds the program to FabricBinding::kNic so the
// blocks double as the stream window: `staging_depth * peers` blocks keep
// that many NIC messages in flight, clamped by the queue-pair budget.
struct NicRailPushParams {
  int nodes = 0;
  int per_node = 0;
  int64_t block_rows = 0;  // rows of one global destination block
  int64_t n = 0;           // row width
  int64_t chunk_rows = 0;  // rows per NIC message
  DType dtype = DType::kBF16;
  comm::SymTensor src;      // per-rank node-reduced rows (see src_row)
  comm::SymTensor staging;  // per-rank rail staging
                            // [(nodes-1) * block_rows, n], per-source slots
  // Row of `src[rank]` holding the node-reduced chunk destined for peer
  // node `peer_node`, offset `row` within the block.
  std::function<int64_t(const Env&, int peer_node, int64_t row)> src_row;
  // Wait spec gating the chunk send (node reduction of those rows done).
  std::function<WaitSpec(const Env&, int peer_node, int64_t chunk)> wait;
  int rail_channel_base = 0;  // kPeer channels: base + src_index*cpb + chunk
};

BlockProgram BuildNicRailPush(const NicRailPushParams& params);

// NIC rail reduce: the receiver side — for each chunk of the rank's own
// block, wait for the local node partial, then fold in every rail peer's
// partial as it lands (PeerTileWait on the rail arrival channel, acquire
// load, memory-bound reduce) and store the fully reduced chunk.
struct NicRailReduceParams {
  int nodes = 0;
  int per_node = 0;
  int64_t block_rows = 0;
  int64_t n = 0;
  int64_t chunk_rows = 0;
  DType dtype = DType::kBF16;
  comm::SymTensor src;      // per-rank node-reduced rows (see src_row)
  comm::SymTensor staging;  // rail staging, same layout as the push side
  comm::SymTensor outs;     // per-rank reduced block [block_rows, n]
  // Row of `src[rank]` holding the own-node partial at block offset `row`.
  std::function<int64_t(const Env&, int64_t row)> src_row;
  // Wait spec for the own-node partial of `chunk`.
  std::function<WaitSpec(const Env&, int64_t chunk)> wait;
  int rail_channel_base = 0;
};

BlockProgram BuildNicRailReduce(const NicRailReduceParams& params);

// Work items of the rail roles: chunks per block and per role.
int64_t RailChunksPerBlock(int64_t block_rows, int64_t chunk_rows);

// Per-peer rail staging window: the requested depth for all `peers`
// concurrent rail exchanges is granted from a fresh device NIC channel
// budget (the queue pairs), then divided back across the peers. With no
// peers (single node) no NIC channel is claimed.
int RailWindow(const sim::MachineSpec& spec, int staging_depth, int peers);

// Receiver-side per-source slot indexing shared by every rail consumer
// (device rail roles and the host collectives): slot of source node
// `src_node` in an array that skips the receiver's own node, and its
// inverse.
int RailSourceIndex(int src_node, int my_node);
int RailSourceNode(int slot, int my_node);

}  // namespace tilelink::tl
