#include "tilelink/multinode/hier_collectives.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/math_utils.h"
#include "sim/coro_utils.h"
#include "sim/trace.h"
#include "tilelink/builder/role_plan.h"

namespace tilelink::multinode {
namespace {

using tl::ChunkIo;
using tl::LinkChunk;
using tl::RunLinkStream;

// dst[dst_lo..) += src[src_lo..) over `elems` fp32 values.
void AddInto(rt::Buffer* dst, int64_t dst_lo, const rt::Buffer* src,
             int64_t src_lo, int64_t elems) {
  auto d = dst->data();
  auto s = src->data();
  for (int64_t i = 0; i < elems; ++i) {
    d[static_cast<size_t>(dst_lo + i)] += s[static_cast<size_t>(src_lo + i)];
  }
}

std::string RName(const char* stage, int r) {
  return std::string(stage) + ".r" + std::to_string(r);
}

std::string EdgeName(const char* stage, int src, int dst) {
  return std::string(stage) + ".r" + std::to_string(src) + "->r" +
         std::to_string(dst);
}

// `primary` scopes the fault to the sender's first rail exchange (its
// lowest-node peer), so exactly one chunk misbehaves even when the sender
// runs one send stream per peer node (3+ node topologies). Reorders come
// from a FaultPlan attached to the World (FaultPlan::ReorderRailChunk).
bool EagerRailFault(const rt::World& world, int sender, std::size_t index,
                    bool primary) {
  if (!primary) return false;
  const sim::FaultPlan* plan = world.fault_plan();
  return plan != nullptr &&
         plan->IsRailReorder(sender, static_cast<int64_t>(index));
}

// True when `peer_node` is the lowest node other than `my_node`.
bool IsPrimaryRailPeer(int peer_node, int my_node) {
  return peer_node == (my_node == 0 ? 1 : 0);
}

// Rendezvous + NCCL-analog setup, identical to the operator-centric
// collectives so flat-vs-hierarchical comparisons start from the same gate.
sim::Coro CollectiveEntry(rt::RankCtx& ctx) {
  co_await ctx.world->comm_barrier().Arrive();
  co_await sim::Delay{ctx.world->spec().collective_setup_latency};
}

sim::TimeNs ReduceCost(rt::World& world, uint64_t bytes, int sms) {
  // Read partial, read accumulator, write accumulator.
  return world.cost().MemoryBound(3 * bytes, sms);
}

// One host reducer: its checker agent name and trace track.
struct ReduceLane {
  ReduceLane(rt::World& w, int rank, std::string lane_name, bool with_payload)
      : world(w), payload(with_payload), name(std::move(lane_name)),
        tr(w.trace()), pid(w.trace_pid(rank)),
        tid(tr != nullptr ? tr->Track(pid, name) : 0) {}
  rt::World& world;
  bool payload;
  std::string name;
  sim::TraceRecorder* tr;
  int pid;
  int tid;
};

struct ReduceStep {
  sim::TimeNs wake;
  uint64_t write_ticket;
};

// Reduce-step bookkeeping, split around the step's single
// co_await sim::Delay{ReduceCost(...)} so no coroutine layer is added.
// BeginReduce runs when the arrival covering `threshold` tiles has landed:
// it binds that arrival's flow arrow, probes the staged partial
// [lo, hi) of `staged` and opens the fold's write window.
ReduceStep BeginReduce(const ReduceLane& lane, InOrderSignal* arrival,
                       uint64_t threshold, const rt::Buffer* staged,
                       int64_t lo, int64_t hi) {
  ReduceStep step{lane.world.sim().Now(), 0};
  if (lane.tr != nullptr) {
    const auto fin = arrival->TakeFlowCovering(threshold);
    if (fin.first != 0) {
      lane.tr->AddFlowFinish(fin.first, lane.pid, lane.tid, step.wake,
                             fin.second);
    }
  }
  if (lane.payload) {
    lane.world.checker().CheckRead(staged, lo, hi, step.wake, lane.name);
    step.write_ticket = lane.world.checker().OpenWrite(step.wake);
  }
  return step;
}

// EndReduce runs after the delay and the caller's payload fold: it records
// the fold into [lo, hi) of `acc` and emits the step's span. RMW
// convention: the mutation window opens strictly after the wake probe, so
// a reducer's own read never matches its write; atomic: reduction
// epilogues are commutative accumulations, and concurrent reducers may
// fold into the same rows.
void EndReduce(const ReduceLane& lane, const ReduceStep& step,
               const rt::Buffer* acc, int64_t lo, int64_t hi,
               const char* span, int64_t tiles, const char* arg,
               int64_t arg_value) {
  const sim::TimeNs now = lane.world.sim().Now();
  if (lane.payload) {
    lane.world.checker().RecordWrite(acc, lo, hi, step.wake + 1, now,
                                     lane.name, /*atomic=*/true);
    lane.world.checker().CloseWrite(step.write_ticket);
  }
  if (lane.tr != nullptr) {
    lane.tr->AddSpan(
        lane.pid, lane.tid, span, step.wake, now, sim::kCatCompute,
        {sim::TraceArg::Num("tiles", static_cast<double>(tiles)),
         sim::TraceArg::Num(arg, static_cast<double>(arg_value))});
  }
}

// Receiver-side per-source slot indexing, shared with the device rail
// roles through the link-role layer.
int SourceIndex(int src_node, int my_node) {
  return tl::RailSourceIndex(src_node, my_node);
}
int SourceNode(int k, int my_node) { return tl::RailSourceNode(k, my_node); }

// Collectives address rail peers as (node, local) pairs; ragged layouts
// (a partially filled last node) are not modeled.
void CheckDenseTopology(const sim::MachineSpec& spec) {
  TL_CHECK_EQ(spec.num_devices % spec.devices_per_node, 0);
}

// Config + topology validation shared by the collective constructors; runs
// before any link role is built so misconfigurations fail with a clear
// message instead of deep inside a chunk loop. Returns the layout's node
// count so it can sit first in a constructor's initializer list. The
// one-ring layout is a single node of every rank, dense on any topology.
int ValidatedNodes(const sim::MachineSpec& spec, const HierConfig& cfg,
                   RingLayout layout = RingLayout::kNodes) {
  cfg.Validate();
  if (layout == RingLayout::kOneRing) return 1;
  CheckDenseTopology(spec);
  return spec.num_nodes();
}

int RanksPerNode(const sim::MachineSpec& spec, RingLayout layout) {
  return layout == RingLayout::kOneRing ? spec.num_devices
                                        : spec.devices_per_node;
}

void CheckPayloadShapes(rt::World& world,
                        const std::vector<rt::Buffer*>& in,
                        const std::vector<rt::Buffer*>& out,
                        int64_t tile_elems, int64_t in_elems,
                        int64_t out_elems) {
  TL_CHECK_MSG(world.functional(),
               "payload mode requires an ExecMode::kFunctional world");
  TL_CHECK_MSG(tile_elems > 0, "AttachPayload: tile_elems must be positive, "
                               "got " << tile_elems);
  TL_CHECK_EQ(static_cast<int>(in.size()), world.size());
  TL_CHECK_EQ(static_cast<int>(out.size()), world.size());
  for (int r = 0; r < world.size(); ++r) {
    TL_CHECK_MSG(in[static_cast<size_t>(r)]->num_elems() == in_elems,
                 "AttachPayload: in[" << r << "] has "
                     << in[static_cast<size_t>(r)]->num_elems()
                     << " elems but the collective's num_tiles x tile_elems "
                        "layout requires " << in_elems
                     << " (tile_elems mismatch?)");
    TL_CHECK_MSG(out[static_cast<size_t>(r)]->num_elems() == out_elems,
                 "AttachPayload: out[" << r << "] has "
                     << out[static_cast<size_t>(r)]->num_elems()
                     << " elems but the collective's num_tiles x tile_elems "
                        "layout requires " << out_elems
                     << " (tile_elems mismatch?)");
  }
}

}  // namespace

HierConfig HierConfig::FromCandidate(const tl::TuneCandidate& c) {
  HierConfig cfg;
  cfg.nic_chunk_tiles = std::max(1, c.nic_chunk_tiles);
  cfg.staging_depth = std::max(1, c.staging_depth);
  cfg.reduce_sms = std::max(1, c.reduce_sms);
  if (c.channels_per_rank > 0) cfg.intra_channels = c.channels_per_rank;
  return cfg;
}

void HierConfig::Validate() const {
  TL_CHECK_MSG(nic_chunk_tiles > 0,
               "HierConfig.nic_chunk_tiles must be positive, got "
                   << nic_chunk_tiles);
  TL_CHECK_MSG(staging_depth > 0,
               "HierConfig.staging_depth must be positive, got "
                   << staging_depth);
  TL_CHECK_MSG(intra_chunk_tiles > 0,
               "HierConfig.intra_chunk_tiles must be positive, got "
                   << intra_chunk_tiles);
  TL_CHECK_MSG(intra_channels > 0,
               "HierConfig.intra_channels must be positive, got "
                   << intra_channels);
  TL_CHECK_MSG(reduce_sms > 0,
               "HierConfig.reduce_sms must be positive, got " << reduce_sms);
}

// ---------------------------------------------------------------------------
// HierAllGather
// ---------------------------------------------------------------------------

HierAllGather::HierAllGather(rt::World& world, int64_t num_tiles,
                             uint64_t tile_bytes, const HierConfig& cfg,
                             RingLayout layout)
    : world_(world), num_tiles_(num_tiles), tile_bytes_(tile_bytes),
      cfg_(cfg),
      nodes_(ValidatedNodes(world.spec(), cfg, layout)),
      per_node_(RanksPerNode(world.spec(), layout)),
      rail_role_(world, cfg.nic_chunk_tiles, cfg.staging_depth, nodes_ - 1),
      ring_role_(world, cfg.intra_chunk_tiles, cfg.intra_channels) {
  TL_CHECK_GT(num_tiles, 0);
  TL_CHECK_GT(tile_bytes, 0u);
  rail_.resize(static_cast<size_t>(world.size()));
  ring_.resize(static_cast<size_t>(world.size()));
  for (int r = 0; r < world.size(); ++r) {
    for (int k = 0; k + 1 < nodes_; ++k) {
      rail_[static_cast<size_t>(r)].push_back(std::make_unique<InOrderSignal>(
          &world.sim(), "hier_ag.rail.r" + std::to_string(r)));
      rail_[static_cast<size_t>(r)].back()->set_trace_pid(world.trace_pid(r));
    }
    ring_[static_cast<size_t>(r)] = std::make_unique<InOrderSignal>(
        &world.sim(), "hier_ag.ring.r" + std::to_string(r));
    ring_[static_cast<size_t>(r)]->set_trace_pid(world.trace_pid(r));
  }
}

void HierAllGather::AttachPayload(std::vector<rt::Buffer*> in,
                                  std::vector<rt::Buffer*> out,
                                  int64_t tile_elems) {
  CheckPayloadShapes(world_, in, out, tile_elems, num_tiles_ * tile_elems,
                     world_.size() * num_tiles_ * tile_elems);
  in_ = std::move(in);
  out_ = std::move(out);
  tile_elems_ = tile_elems;
}

sim::Coro HierAllGather::RailSend(rt::RankCtx& ctx, int peer) {
  const int r = ctx.rank;
  const int64_t E = tile_elems_;
  InOrderSignal* sig =
      rail_[static_cast<size_t>(peer)]
           [static_cast<size_t>(SourceIndex(r / per_node_, peer / per_node_))]
               .get();
  const bool primary =
      IsPrimaryRailPeer(peer / per_node_, r / per_node_);
  const int64_t chunk_tiles = rail_role_.chunk_tiles();
  auto chunk = [this, r, peer, E, primary, chunk_tiles](int64_t k) {
    LinkChunk c;
    const int64_t off = k * chunk_tiles;
    c.tiles = std::min(chunk_tiles, num_tiles_ - off);
    c.eager_publish =
        EagerRailFault(world_, r, static_cast<std::size_t>(k), primary);
    if (payload()) {
      const int64_t lo = (r * num_tiles_ + off) * E;
      c.io = ChunkIo{&world_, out_[static_cast<size_t>(r)],
                     out_[static_cast<size_t>(peer)],
                     {{lo, lo, c.tiles * E}},
                     RName("hier_ag.rail_send", r),
                     EdgeName("hier_ag.rail", r, peer)};
    }
    return c;
  };
  co_await RunLinkStream(
      ctx.sim(),
      rail_role_.Stream(r, peer, tile_bytes_, sig,
                        "hier_ag.rail_send.r" + std::to_string(r),
                        "hier_ag.rail_chunk",
                        CeilDiv(num_tiles_, chunk_tiles), chunk));
}

sim::Coro HierAllGather::RingSend(rt::RankCtx& ctx) {
  const int r = ctx.rank;
  const int n = r / per_node_, l = r % per_node_;
  const int right = n * per_node_ + (l + 1) % per_node_;
  const int64_t group = static_cast<int64_t>(nodes_) * num_tiles_;
  const int64_t E = tile_elems_;
  const int64_t chunk_tiles = ring_role_.chunk_tiles();
  const int64_t chunks_per_seg = CeilDiv(num_tiles_, chunk_tiles);
  // Blocks travel the ring oldest-first: block j originated j hops to the
  // left; within a block, the owner's shard leads and its rail segments
  // follow in source-node order.
  auto chunk = [this, r, n, l, right, group, E, chunk_tiles,
                chunks_per_seg](int64_t k) {
    LinkChunk c;
    const int j = static_cast<int>(k / (nodes_ * chunks_per_seg));
    const int64_t rem = k % (nodes_ * chunks_per_seg);
    const int seg = static_cast<int>(rem / chunks_per_seg);
    const int64_t off = (rem % chunks_per_seg) * chunk_tiles;
    c.tiles = std::min(chunk_tiles, num_tiles_ - off);
    if (j == 0) {
      if (seg > 0) {
        // Own block's rail segment: forward tiles as they land.
        InOrderSignal* up =
            rail_[static_cast<size_t>(r)][static_cast<size_t>(seg - 1)].get();
        const uint64_t thr = static_cast<uint64_t>(off + c.tiles);
        c.gate = {&up->tiles_arrived(), thr};
        if (world_.trace() != nullptr) {
          c.take_flow = [up, thr] { return up->TakeFlowCovering(thr); };
        }
      }
    } else {
      // Forwarded block: must have arrived from the left neighbor.
      InOrderSignal* up = ring_[static_cast<size_t>(r)].get();
      const uint64_t thr =
          static_cast<uint64_t>((j - 1) * group +
                                static_cast<int64_t>(seg) * num_tiles_ +
                                off + c.tiles);
      c.gate = {&up->tiles_arrived(), thr};
      if (world_.trace() != nullptr) {
        c.take_flow = [up, thr] { return up->TakeFlowCovering(thr); };
      }
    }
    if (payload()) {
      // The chunk's tiles belong to the shard of the block owner's
      // column: block j originated at local index (l - j), segment 0 is
      // the owner's own shard, segment s > 0 the rail source s-1.
      const int lsrc = (l - j + per_node_) % per_node_;
      const int src_node = seg == 0 ? n : SourceNode(seg - 1, n);
      const int gsrc = src_node * per_node_ + lsrc;
      const int64_t lo = (gsrc * num_tiles_ + off) * E;
      c.io = ChunkIo{&world_, out_[static_cast<size_t>(r)],
                     out_[static_cast<size_t>(right)],
                     {{lo, lo, c.tiles * E}},
                     RName("hier_ag.ring_send", r),
                     EdgeName("hier_ag.ring", r, right)};
    }
    return c;
  };
  co_await RunLinkStream(
      ctx.sim(),
      ring_role_.Stream(r, right, tile_bytes_,
                        ring_[static_cast<size_t>(right)].get(),
                        "hier_ag.ring_send.r" + std::to_string(r),
                        "hier_ag.ring_chunk",
                        static_cast<int64_t>(per_node_ - 1) * nodes_ *
                            chunks_per_seg,
                        chunk));
}

sim::Coro HierAllGather::Run(rt::RankCtx& ctx) {
  const int r = ctx.rank;
  if (payload()) {
    // Place the local shard before any peer can pull it forward.
    auto s = in_[static_cast<size_t>(r)]->data();
    auto d = out_[static_cast<size_t>(r)]->data();
    std::copy_n(s.data(), num_tiles_ * tile_elems_,
                d.data() + r * num_tiles_ * tile_elems_);
  }
  co_await CollectiveEntry(ctx);
  const int n = r / per_node_, l = r % per_node_;
  std::vector<sim::Coro> work;
  for (int nn = 0; nn < nodes_; ++nn) {
    if (nn == n) continue;
    work.push_back(RailSend(ctx, nn * per_node_ + l));
  }
  if (per_node_ > 1) work.push_back(RingSend(ctx));
  co_await sim::WhenAll(std::move(work));
  // Sends drained; wait for every inbound tile.
  for (int k = 0; k + 1 < nodes_; ++k) {
    co_await rail_[static_cast<size_t>(r)][static_cast<size_t>(k)]
        ->tiles_arrived()
        .WaitGe(static_cast<uint64_t>(num_tiles_));
  }
  if (per_node_ > 1) {
    co_await ring_[static_cast<size_t>(r)]->tiles_arrived().WaitGe(
        static_cast<uint64_t>((per_node_ - 1) *
                              static_cast<int64_t>(nodes_) * num_tiles_));
  }
  if (payload()) {
    // Final consume: the whole gathered buffer must be visible now.
    world_.checker().CheckRead(
        out_[static_cast<size_t>(r)], 0,
        world_.size() * num_tiles_ * tile_elems_, ctx.sim()->Now(),
        RName("hier_ag.final", r));
  }
}

// ---------------------------------------------------------------------------
// HierReduceScatter
// ---------------------------------------------------------------------------

HierReduceScatter::HierReduceScatter(rt::World& world, int64_t num_tiles,
                                     uint64_t tile_bytes,
                                     const HierConfig& cfg, RingLayout layout)
    : world_(world), num_tiles_(num_tiles), tile_bytes_(tile_bytes),
      cfg_(cfg),
      nodes_(ValidatedNodes(world.spec(), cfg, layout)),
      per_node_(RanksPerNode(world.spec(), layout)),
      group_tiles_(static_cast<int64_t>(nodes_) * num_tiles),
      rail_role_(world, cfg.nic_chunk_tiles, cfg.staging_depth, nodes_ - 1),
      ring_role_(world, cfg.intra_chunk_tiles, cfg.intra_channels) {
  TL_CHECK_GT(num_tiles, 0);
  for (int r = 0; r < world.size(); ++r) {
    ring_.push_back(std::make_unique<InOrderSignal>(
        &world.sim(), "hier_rs.ring.r" + std::to_string(r)));
    ring_.back()->set_trace_pid(world.trace_pid(r));
    ring_reduced_.push_back(std::make_unique<sim::Flag>(
        &world.sim(), "hier_rs.ring_red.r" + std::to_string(r)));
    ring_red_ledger_.push_back(std::make_unique<tl::FlowLedger>());
    rail_.emplace_back();
    for (int k = 0; k + 1 < nodes_; ++k) {
      rail_.back().push_back(std::make_unique<InOrderSignal>(
          &world.sim(), "hier_rs.rail.r" + std::to_string(r)));
      rail_.back().back()->set_trace_pid(world.trace_pid(r));
    }
  }
}

void HierReduceScatter::AttachPayload(std::vector<rt::Buffer*> in,
                                      std::vector<rt::Buffer*> out,
                                      int64_t tile_elems) {
  CheckPayloadShapes(world_, in, out, tile_elems,
                     world_.size() * num_tiles_ * tile_elems,
                     num_tiles_ * tile_elems);
  in_ = std::move(in);
  out_ = std::move(out);
  tile_elems_ = tile_elems;
  ring_acc_.assign(static_cast<size_t>(world_.size()), nullptr);
  rail_acc_.assign(static_cast<size_t>(world_.size()), {});
  for (int r = 0; r < world_.size(); ++r) {
    if (per_node_ > 1) {
      ring_acc_[static_cast<size_t>(r)] = world_.device(r).Alloc(
          "hier_rs.ring_acc",
          (per_node_ - 1) * group_tiles_ * tile_elems);
    }
    for (int k = 0; k + 1 < nodes_; ++k) {
      rail_acc_[static_cast<size_t>(r)].push_back(
          world_.device(r).Alloc("hier_rs.rail_acc",
                                 num_tiles_ * tile_elems));
    }
  }
}

sim::Coro HierReduceScatter::RingSend(rt::RankCtx& ctx) {
  const int r = ctx.rank;
  const int n = r / per_node_, l = r % per_node_;
  const int right = n * per_node_ + (l + 1) % per_node_;
  const int64_t E = tile_elems_;
  const int64_t chunk_tiles = ring_role_.chunk_tiles();
  const int64_t chunks_per_step = CeilDiv(group_tiles_, chunk_tiles);
  // Step s forwards the accumulated partial of the group destined for the
  // rank s+1 hops to the right's left... i.e. local dest (l - s - 1); the
  // s=0 group is the local partial, later steps forward what the reducer
  // finished for the previous step.
  auto chunk = [this, r, l, right, E, chunk_tiles,
                chunks_per_step](int64_t k) {
    LinkChunk c;
    const int s = static_cast<int>(k / chunks_per_step);
    const int64_t off = (k % chunks_per_step) * chunk_tiles;
    c.tiles = std::min(chunk_tiles, group_tiles_ - off);
    if (s > 0) {
      c.gate = {ring_reduced_[static_cast<size_t>(r)].get(),
                static_cast<uint64_t>((s - 1) * group_tiles_ + off +
                                      c.tiles)};
    }
    if (payload()) {
      c.io.world = &world_;
      c.io.dst = ring_acc_[static_cast<size_t>(right)];
      c.io.reader = RName("hier_rs.ring_send", r);
      c.io.writer = EdgeName("hier_rs.ring", r, right);
      const int64_t dst_base = static_cast<int64_t>(s) * group_tiles_;
      if (s == 0) {
        // Local partials: group (l - 1), node-major segments of the
        // destination-rank-ordered input.
        c.io.src = in_[static_cast<size_t>(r)];
        const int g = (l - 1 + per_node_) % per_node_;
        int64_t p = off;
        while (p < off + c.tiles) {
          const int64_t m = p / num_tiles_, t = p % num_tiles_;
          const int64_t len = std::min(off + c.tiles - p, num_tiles_ - t);
          c.io.runs.push_back(
              {((m * per_node_ + g) * num_tiles_ + t) * E,
               (dst_base + p) * E, len * E});
          p += len;
        }
      } else {
        c.io.src = ring_acc_[static_cast<size_t>(r)];
        c.io.runs.push_back({((s - 1) * group_tiles_ + off) * E,
                             (dst_base + off) * E, c.tiles * E});
      }
    }
    return c;
  };
  co_await RunLinkStream(
      ctx.sim(),
      ring_role_.Stream(r, right, tile_bytes_,
                        ring_[static_cast<size_t>(right)].get(),
                        "hier_rs.ring_send.r" + std::to_string(r),
                        "hier_rs.ring_chunk",
                        static_cast<int64_t>(per_node_ - 1) * chunks_per_step,
                        chunk));
}

sim::Coro HierReduceScatter::RingReducer(rt::RankCtx& ctx) {
  const int r = ctx.rank;
  const int l = r % per_node_;
  const int64_t E = tile_elems_;
  const int64_t total =
      static_cast<int64_t>(per_node_ - 1) * group_tiles_;
  const ReduceLane lane(world_, r, RName("hier_rs.ring_reduce", r),
                        payload());
  InOrderSignal* arrivals = ring_[static_cast<size_t>(r)].get();
  rt::Buffer* acc = payload() ? ring_acc_[static_cast<size_t>(r)] : nullptr;
  int64_t cum = 0;
  while (cum < total) {
    // Clip at the ring-step boundary: the sender gates step s's chunks on
    // the reduced prefix of step s-1, so a reduce step that straddled the
    // boundary would wait on a chunk that waits on it.
    const int64_t tiles = std::min<int64_t>(
        {cfg_.intra_chunk_tiles, total - cum,
         group_tiles_ - cum % group_tiles_});
    const uint64_t thr = static_cast<uint64_t>(cum + tiles);
    co_await arrivals->tiles_arrived().WaitGe(thr);
    const ReduceStep step =
        BeginReduce(lane, arrivals, thr, acc, cum * E, (cum + tiles) * E);
    co_await sim::Delay{ReduceCost(
        world_, static_cast<uint64_t>(tiles) * tile_bytes_, cfg_.reduce_sms)};
    if (payload()) {
      // Add this rank's own partial to each arrived tile: arrival position
      // p is step s = p / group_tiles of group (l - s - 2), node-major.
      for (int64_t p = cum; p < cum + tiles; ++p) {
        const int64_t s = p / group_tiles_, q = p % group_tiles_;
        const int g =
            (l - static_cast<int>(s) - 2 + 2 * per_node_) % per_node_;
        const int64_t m = q / num_tiles_, t = q % num_tiles_;
        AddInto(acc, p * E, in_[static_cast<size_t>(r)],
                ((m * per_node_ + g) * num_tiles_ + t) * E, E);
      }
    }
    ring_reduced_[static_cast<size_t>(r)]->Add(
        static_cast<uint64_t>(tiles));
    const int64_t lo = cum;
    cum += tiles;
    if (lane.tr != nullptr) {
      // Publish a ledger arrow so the rail chunk gated on this reduction
      // binds back to the reducer span.
      const uint64_t fid = lane.tr->NewFlowId();
      lane.tr->AddFlowStart(fid, lane.pid, lane.tid, ctx.sim()->Now(),
                            "hier_rs.ring_red");
      ring_red_ledger_[static_cast<size_t>(r)]->Publish(
          static_cast<uint64_t>(cum), fid, "hier_rs.ring_red");
    }
    EndReduce(lane, step, acc, lo * E, cum * E, "ring_reduce", tiles, "cum",
              cum);
  }
}

sim::Coro HierReduceScatter::RailSend(rt::RankCtx& ctx, int peer,
                                      int peer_index) {
  const int r = ctx.rank;
  const int l = r % per_node_;
  const int peer_node = peer / per_node_;
  const int64_t E = tile_elems_;
  InOrderSignal* sig =
      rail_[static_cast<size_t>(peer)][static_cast<size_t>(peer_index)].get();
  const bool primary = IsPrimaryRailPeer(peer_node, r / per_node_);
  const int64_t chunk_tiles = rail_role_.chunk_tiles();
  // The fully node-reduced tiles of the peer node's block: they are the
  // `peer_node` segment of this rank's own group, which arrives (reduced)
  // during the final intra ring step.
  const int64_t own_group_base =
      static_cast<int64_t>(per_node_ - 2) * group_tiles_;
  auto chunk = [this, r, l, peer, peer_node, E, primary, chunk_tiles,
                own_group_base](int64_t k) {
    LinkChunk c;
    const int64_t off = k * chunk_tiles;
    c.tiles = std::min(chunk_tiles, num_tiles_ - off);
    c.eager_publish =
        EagerRailFault(world_, r, static_cast<std::size_t>(k), primary);
    if (per_node_ > 1) {
      const uint64_t thr = static_cast<uint64_t>(
          own_group_base + static_cast<int64_t>(peer_node) * num_tiles_ +
          off + c.tiles);
      c.gate = {ring_reduced_[static_cast<size_t>(r)].get(), thr};
      if (world_.trace() != nullptr) {
        tl::FlowLedger* led = ring_red_ledger_[static_cast<size_t>(r)].get();
        c.take_flow = [led, thr] { return led->TakeCovering(thr); };
      }
    }
    if (payload()) {
      c.io.world = &world_;
      c.io.dst = rail_acc_[static_cast<size_t>(peer)][static_cast<size_t>(
          SourceIndex(r / per_node_, peer_node))];
      c.io.reader = RName("hier_rs.rail_send", r);
      c.io.writer = EdgeName("hier_rs.rail", r, peer);
      if (per_node_ > 1) {
        c.io.src = ring_acc_[static_cast<size_t>(r)];
        c.io.runs.push_back(
            {(own_group_base + static_cast<int64_t>(peer_node) * num_tiles_ +
              off) * E,
             off * E, c.tiles * E});
      } else {
        // Single-rank node: the node partial is this rank's own input
        // block for the peer (global block index == peer rank).
        c.io.src = in_[static_cast<size_t>(r)];
        c.io.runs.push_back(
            {((static_cast<int64_t>(peer_node) * per_node_ + l) * num_tiles_ +
              off) * E,
             off * E, c.tiles * E});
      }
    }
    return c;
  };
  co_await RunLinkStream(
      ctx.sim(),
      rail_role_.Stream(r, peer, tile_bytes_, sig,
                        "hier_rs.rail_send.r" + std::to_string(r),
                        "hier_rs.rail_chunk",
                        CeilDiv(num_tiles_, chunk_tiles), chunk));
}

sim::Coro HierReduceScatter::RailReducer(rt::RankCtx& ctx) {
  std::vector<sim::Coro> per_source;
  for (int k = 0; k + 1 < nodes_; ++k) {
    per_source.push_back([](HierReduceScatter* self, rt::RankCtx& c,
                            int src) -> sim::Coro {
      const int64_t E = self->tile_elems_;
      const size_t r = static_cast<size_t>(c.rank);
      const ReduceLane lane(
          self->world_, c.rank,
          RName("hier_rs.rail_reduce", c.rank) + ".s" + std::to_string(src),
          self->payload());
      InOrderSignal* arrivals =
          self->rail_[r][static_cast<size_t>(src)].get();
      rt::Buffer* staged =
          self->payload() ? self->rail_acc_[r][static_cast<size_t>(src)]
                          : nullptr;
      rt::Buffer* out = self->payload() ? self->out_[r] : nullptr;
      int64_t cum = 0;
      while (cum < self->num_tiles_) {
        const int64_t tiles = std::min<int64_t>(self->cfg_.nic_chunk_tiles,
                                                self->num_tiles_ - cum);
        const uint64_t thr = static_cast<uint64_t>(cum + tiles);
        co_await arrivals->tiles_arrived().WaitGe(thr);
        const ReduceStep step = BeginReduce(lane, arrivals, thr, staged,
                                            cum * E, (cum + tiles) * E);
        co_await sim::Delay{ReduceCost(
            self->world_, static_cast<uint64_t>(tiles) * self->tile_bytes_,
            self->cfg_.reduce_sms)};
        if (self->payload()) {
          AddInto(out, cum * E, staged, cum * E, tiles * E);
        }
        EndReduce(lane, step, out, cum * E, (cum + tiles) * E,
                  "rail_reduce", tiles, "src_slot", src);
        cum += tiles;
      }
    }(this, ctx, k));
  }
  co_await sim::WhenAll(std::move(per_source));
}

// Payload mode: fold the own node's fully reduced partial of this rank's
// block into the output. It is the own-node segment of the own group, which
// the ring reducer finishes last; a single-rank node contributes its input
// block directly. Pure flag waits + host copies: adds no simulated time.
sim::Coro HierReduceScatter::OwnContribution(rt::RankCtx& ctx) {
  const int r = ctx.rank;
  const int n = r / per_node_;
  const int64_t E = tile_elems_;
  const std::string name = RName("hier_rs.own", r);
  if (per_node_ > 1) {
    const int64_t base = static_cast<int64_t>(per_node_ - 2) * group_tiles_ +
                         static_cast<int64_t>(n) * num_tiles_;
    co_await ring_reduced_[static_cast<size_t>(r)]->WaitGe(
        static_cast<uint64_t>(base + num_tiles_));
    world_.checker().CheckRead(ring_acc_[static_cast<size_t>(r)], base * E,
                               (base + num_tiles_) * E, ctx.sim()->Now(),
                               name);
    AddInto(out_[static_cast<size_t>(r)], 0,
            ring_acc_[static_cast<size_t>(r)], base * E, num_tiles_ * E);
  } else {
    AddInto(out_[static_cast<size_t>(r)], 0, in_[static_cast<size_t>(r)],
            static_cast<int64_t>(r) * num_tiles_ * E, num_tiles_ * E);
  }
  // Atomic: this fold can commit while the per-source rail reducers are
  // mid-accumulation on the same output rows.
  const sim::TimeNs now = ctx.sim()->Now();
  world_.checker().RecordWrite(out_[static_cast<size_t>(r)], 0,
                               num_tiles_ * E, now, now, name,
                               /*atomic=*/true);
}

sim::Coro HierReduceScatter::Run(rt::RankCtx& ctx) {
  co_await CollectiveEntry(ctx);
  const int r = ctx.rank;
  const int n = r / per_node_, l = r % per_node_;
  std::vector<sim::Coro> work;
  if (per_node_ > 1) {
    work.push_back(RingSend(ctx));
    work.push_back(RingReducer(ctx));
  }
  for (int nn = 0; nn < nodes_; ++nn) {
    if (nn == n) continue;
    work.push_back(
        RailSend(ctx, nn * per_node_ + l, SourceIndex(n, nn)));
  }
  if (nodes_ > 1) work.push_back(RailReducer(ctx));
  if (payload()) work.push_back(OwnContribution(ctx));
  co_await sim::WhenAll(std::move(work));
  if (payload()) {
    world_.checker().CheckRead(out_[static_cast<size_t>(r)], 0,
                               num_tiles_ * tile_elems_, ctx.sim()->Now(),
                               RName("hier_rs.final", r));
  }
}

// ---------------------------------------------------------------------------
// DpAllReduce
// ---------------------------------------------------------------------------

// Tiles of group-member block b (the last block absorbs the remainder).
static int64_t DpBlockTiles(int64_t num_tiles, int nodes, int b) {
  const int64_t base = num_tiles / nodes;
  return b == nodes - 1 ? num_tiles - base * (nodes - 1) : base;
}

// First tile of group-member block b.
static int64_t DpBlockStart(int64_t num_tiles, int nodes, int b) {
  return static_cast<int64_t>(b) * (num_tiles / nodes);
}

DpAllReduce::DpAllReduce(rt::World& world, int64_t num_tiles,
                         uint64_t tile_bytes, const HierConfig& cfg)
    : world_(world), num_tiles_(num_tiles), tile_bytes_(tile_bytes),
      cfg_(cfg),
      nodes_(ValidatedNodes(world.spec(), cfg)),
      per_node_(world.spec().devices_per_node),
      // Each DP group member exchanges with every other member in both
      // phases.
      rail_role_(world, cfg.nic_chunk_tiles, cfg.staging_depth,
                 2 * (nodes_ - 1)) {
  TL_CHECK_GT(num_tiles, 0);
  for (int r = 0; r < world.size(); ++r) {
    rs_arrived_.emplace_back();
    ag_arrived_.emplace_back();
    for (int k = 0; k + 1 < nodes_; ++k) {
      rs_arrived_.back().push_back(std::make_unique<InOrderSignal>(
          &world.sim(), "dp_ar.rs.r" + std::to_string(r)));
      rs_arrived_.back().back()->set_trace_pid(world.trace_pid(r));
      ag_arrived_.back().push_back(std::make_unique<InOrderSignal>(
          &world.sim(), "dp_ar.ag.r" + std::to_string(r)));
      ag_arrived_.back().back()->set_trace_pid(world.trace_pid(r));
    }
    block_reduced_.push_back(std::make_unique<sim::Flag>(
        &world.sim(), "dp_ar.red.r" + std::to_string(r)));
  }
}

void DpAllReduce::AttachPayload(std::vector<rt::Buffer*> in,
                                std::vector<rt::Buffer*> out,
                                int64_t tile_elems) {
  CheckPayloadShapes(world_, in, out, tile_elems, num_tiles_ * tile_elems,
                     num_tiles_ * tile_elems);
  in_ = std::move(in);
  out_ = std::move(out);
  tile_elems_ = tile_elems;
  rs_acc_.assign(static_cast<size_t>(world_.size()), {});
  for (int r = 0; r < world_.size(); ++r) {
    const int64_t own_tiles =
        DpBlockTiles(num_tiles_, nodes_, r / per_node_);
    for (int k = 0; k + 1 < nodes_; ++k) {
      rs_acc_[static_cast<size_t>(r)].push_back(
          world_.device(r).Alloc("dp_ar.rs_acc", own_tiles * tile_elems));
    }
  }
}

sim::Coro DpAllReduce::SendToPeer(rt::RankCtx& ctx, int peer, bool rs_phase) {
  const int r = ctx.rank;
  const int n = r / per_node_, peer_node = peer / per_node_;
  const int64_t E = tile_elems_;
  // RS phase: send the partial of the peer's block. AG phase: send this
  // rank's reduced block.
  const int64_t tiles_total =
      DpBlockTiles(num_tiles_, nodes_, rs_phase ? peer_node : n);
  const int64_t block_start =
      DpBlockStart(num_tiles_, nodes_, rs_phase ? peer_node : n);
  InOrderSignal* sig =
      (rs_phase ? rs_arrived_ : ag_arrived_)[static_cast<size_t>(peer)]
          [static_cast<size_t>(SourceIndex(n, peer_node))]
              .get();
  const bool primary = IsPrimaryRailPeer(peer_node, n);
  const int64_t chunk_tiles = rail_role_.chunk_tiles();
  auto chunk = [this, r, n, peer, peer_node, rs_phase, E, primary,
                chunk_tiles, tiles_total, block_start](int64_t k) {
    LinkChunk c;
    const int64_t off = k * chunk_tiles;
    c.tiles = std::min(chunk_tiles, tiles_total - off);
    c.eager_publish =
        rs_phase &&
        EagerRailFault(world_, r, static_cast<std::size_t>(k), primary);
    if (!rs_phase) {
      // A reduced chunk leaves as soon as the reducer finishes it.
      c.gate = {block_reduced_[static_cast<size_t>(r)].get(),
                static_cast<uint64_t>(off + c.tiles)};
    }
    if (payload()) {
      c.io.world = &world_;
      if (rs_phase) {
        c.io.src = in_[static_cast<size_t>(r)];
        c.io.dst = rs_acc_[static_cast<size_t>(peer)]
                          [static_cast<size_t>(SourceIndex(n, peer_node))];
        c.io.runs.push_back({(block_start + off) * E, off * E, c.tiles * E});
        c.io.reader = RName("dp_ar.send_rs", r);
        c.io.writer = EdgeName("dp_ar.rs", r, peer);
      } else {
        c.io.src = out_[static_cast<size_t>(r)];
        c.io.dst = out_[static_cast<size_t>(peer)];
        c.io.runs.push_back(
            {(block_start + off) * E, (block_start + off) * E, c.tiles * E});
        c.io.reader = RName("dp_ar.send_ag", r);
        c.io.writer = EdgeName("dp_ar.ag", r, peer);
      }
    }
    return c;
  };
  co_await RunLinkStream(
      ctx.sim(),
      rail_role_.Stream(r, peer, tile_bytes_, sig,
                        "dp_ar.send.r" + std::to_string(r), "dp_ar.chunk",
                        CeilDiv(tiles_total, chunk_tiles), chunk));
}

sim::Coro DpAllReduce::Reducer(rt::RankCtx& ctx) {
  const int r = ctx.rank;
  const int n = r / per_node_;
  const int64_t E = tile_elems_;
  const int64_t my_tiles = DpBlockTiles(num_tiles_, nodes_, n);
  const int64_t my_start = DpBlockStart(num_tiles_, nodes_, n);
  const ReduceLane lane(world_, r, RName("dp_ar.reduce", r), payload());
  rt::Buffer* out = payload() ? out_[static_cast<size_t>(r)] : nullptr;
  int64_t cum = 0;
  while (cum < my_tiles) {
    const int64_t tiles =
        std::min<int64_t>(cfg_.nic_chunk_tiles, my_tiles - cum);
    const uint64_t thr = static_cast<uint64_t>(cum + tiles);
    const int64_t lo = (my_start + cum) * E, hi = lo + tiles * E;
    if (payload()) {
      // Own contribution first; peer partials accumulate as they land.
      AddInto(out, lo, in_[static_cast<size_t>(r)], lo, tiles * E);
    }
    for (int k = 0; k + 1 < nodes_; ++k) {
      InOrderSignal* arrivals =
          rs_arrived_[static_cast<size_t>(r)][static_cast<size_t>(k)].get();
      rt::Buffer* staged =
          payload()
              ? rs_acc_[static_cast<size_t>(r)][static_cast<size_t>(k)]
              : nullptr;
      co_await arrivals->tiles_arrived().WaitGe(thr);
      const ReduceStep step =
          BeginReduce(lane, arrivals, thr, staged, cum * E, (cum + tiles) * E);
      co_await sim::Delay{ReduceCost(
          world_, static_cast<uint64_t>(tiles) * tile_bytes_,
          cfg_.reduce_sms)};
      if (payload()) AddInto(out, lo, staged, cum * E, tiles * E);
      EndReduce(lane, step, out, lo, hi, "dp_reduce", tiles, "src_slot", k);
    }
    block_reduced_[static_cast<size_t>(r)]->Add(
        static_cast<uint64_t>(tiles));
    cum += tiles;
  }
}

sim::Coro DpAllReduce::Run(rt::RankCtx& ctx) {
  co_await CollectiveEntry(ctx);
  const int r = ctx.rank;
  if (nodes_ <= 1) {  // single node: no DP group to sync
    if (payload()) {
      auto s = in_[static_cast<size_t>(r)]->data();
      auto d = out_[static_cast<size_t>(r)]->data();
      std::copy_n(s.data(), num_tiles_ * tile_elems_, d.data());
    }
    co_return;
  }
  const int n = r / per_node_, l = r % per_node_;
  std::vector<sim::Coro> work;
  for (int nn = 0; nn < nodes_; ++nn) {
    if (nn == n) continue;
    work.push_back(SendToPeer(ctx, nn * per_node_ + l, /*rs_phase=*/true));
    work.push_back(SendToPeer(ctx, nn * per_node_ + l, /*rs_phase=*/false));
  }
  work.push_back(Reducer(ctx));
  co_await sim::WhenAll(std::move(work));
  // Every other member's reduced block must have landed here.
  for (int k = 0; k + 1 < nodes_; ++k) {
    const int src_node = k < n ? k : k + 1;
    co_await ag_arrived_[static_cast<size_t>(r)][static_cast<size_t>(k)]
        ->tiles_arrived()
        .WaitGe(static_cast<uint64_t>(DpBlockTiles(num_tiles_, nodes_,
                                                   src_node)));
  }
  if (payload()) {
    world_.checker().CheckRead(out_[static_cast<size_t>(r)], 0,
                               num_tiles_ * tile_elems_, ctx.sim()->Now(),
                               RName("dp_ar.final", r));
  }
}

// ---------------------------------------------------------------------------
// Single-rank payload references
// ---------------------------------------------------------------------------

std::vector<float> RefAllGather(const std::vector<rt::Buffer*>& in) {
  std::vector<float> out;
  for (const rt::Buffer* b : in) {
    auto d = b->data();
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

std::vector<float> RefReduceScatter(const std::vector<rt::Buffer*>& in,
                                    int rank, int64_t block_elems) {
  std::vector<float> out(static_cast<size_t>(block_elems), 0.0f);
  for (const rt::Buffer* b : in) {
    auto d = b->data();
    for (int64_t i = 0; i < block_elems; ++i) {
      out[static_cast<size_t>(i)] +=
          d[static_cast<size_t>(rank * block_elems + i)];
    }
  }
  return out;
}

std::vector<float> RefDpAllReduce(const std::vector<rt::Buffer*>& in,
                                  int per_node, int rank) {
  const int l = rank % per_node;
  TL_CHECK(!in.empty());
  std::vector<float> out(
      static_cast<size_t>(in[static_cast<size_t>(l)]->num_elems()), 0.0f);
  for (std::size_t m = 0;
       m * static_cast<std::size_t>(per_node) + static_cast<std::size_t>(l) <
       in.size();
       ++m) {
    auto d = in[m * static_cast<std::size_t>(per_node) +
                static_cast<std::size_t>(l)]
                 ->data();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += d[i];
  }
  return out;
}

}  // namespace tilelink::multinode
