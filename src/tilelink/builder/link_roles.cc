#include "tilelink/builder/link_roles.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/math_utils.h"
#include "sim/trace.h"
#include "tilelink/builder/fused_kernel_base.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/mapping/interval_mapping.h"
#include "tilelink/primitives.h"

namespace tilelink::tl {

void InOrderSignal::Complete(std::size_t index, int64_t tiles, int span_pid,
                             int span_tid) {
  TL_CHECK_GT(tiles, 0);
  if (done_.size() <= index) done_.resize(index + 1, 0);
  TL_CHECK_EQ(done_[index], 0);
  done_[index] = tiles;
  sim::TraceRecorder* tr = trace_pid_ >= 0 ? arrived_.sim()->trace() : nullptr;
  bool advanced = false;
  while (cursor_ < done_.size() && done_[cursor_] > 0) {
    arrived_.Add(static_cast<uint64_t>(done_[cursor_]));
    if (tr != nullptr) {
      // One flow arrow per published chunk, anchored inside the caller's
      // span when it supplied one.
      const uint64_t id = tr->NewFlowId();
      flows_.push_back(FlowEntry{arrived_.value(), id});
      const int pid = span_pid >= 0 ? span_pid : trace_pid_;
      const int tid =
          span_pid >= 0 ? span_tid : tr->Track(trace_pid_, name());
      tr->AddFlowStart(id, pid, tid, arrived_.sim()->Now(), name());
    }
    ++cursor_;
    advanced = true;
  }
  if (tr != nullptr && advanced) {
    tr->AddCounter(trace_pid_, "published_prefix", name(),
                   arrived_.sim()->Now(),
                   static_cast<double>(arrived_.value()));
  }
}

std::pair<uint64_t, std::string> InOrderSignal::TakeFlowCovering(
    uint64_t tiles_threshold) {
  for (FlowEntry& e : flows_) {
    if (e.cum >= tiles_threshold && e.id != 0) {
      const uint64_t id = e.id;
      e.id = 0;
      return {id, name()};
    }
  }
  return {0, std::string()};
}

namespace {

// One chunk moving over an explicit fabric; publishes the in-order arrival
// signal at the receiver and the sender's drain counter. In payload mode the
// runs are copied when the transfer lands, the source reads are probed at
// send time and the destination write interval spans the transfer — with
// OpenWrite bracketing so checker retirement cannot outrun the audit. With
// `eager_publish` (fault injection) the arrival signal fires when the send
// starts: consumers wake mid-transfer, which the checker must catch.
//
// Reliability: each attempt is one TryTransfer under the stream's
// ack-timeout; a failed attempt closes its write interval with no
// RecordWrite (nothing landed, so retirement is unpinned and the retry
// cannot be flagged against the abort), backs off exponentially in
// simulated time, and retries on a freshly picked rail. Exhausting the
// budget throws FaultError naming the role, rank, and chunk; the arrival
// prefix is only ever published for delivered payloads (or eagerly at the
// first attempt when the fault plan injects the §4.2 reorder), so
// InOrderSignal is delayed, never corrupted.
//
// `stream` outlives every spawned chunk: RunLinkStream's frame holds it
// until the final drain wait completes.
sim::Coro TransferChunk(const LinkStream* stream, std::size_t index,
                        int64_t tiles, sim::Flag* done, bool eager_publish,
                        ChunkIo io,
                        std::function<std::pair<uint64_t, std::string>()>
                            take_flow) {
  sim::Network* net = stream->fabric;
  const uint64_t bytes = static_cast<uint64_t>(tiles) * stream->tile_bytes;
  InOrderSignal* sig = stream->arrival;
  rt::ConsistencyChecker* chk =
      io.world != nullptr ? &io.world->checker() : nullptr;
  sim::Simulator* simp = done->sim();
  sim::TraceRecorder* tr =
      stream->trace_pid >= 0 ? simp->trace() : nullptr;
  const int span_pid = tr != nullptr ? stream->trace_pid : -1;
  // `stream->name` was moved into `done` by RunLinkStream; the flag keeps it.
  const int span_tid = tr != nullptr ? tr->Track(span_pid, done->name()) : 0;
  if (tr != nullptr && take_flow) {
    const std::pair<uint64_t, std::string> f = take_flow();
    if (f.first != 0) {
      tr->AddFlowFinish(f.first, span_pid, span_tid, simp->Now(), f.second);
    }
  }
  const int max_attempts = 1 + std::max(0, stream->max_retries);
  const sim::TimeNs backoff =
      stream->backoff_base > 0
          ? stream->backoff_base
          : std::max<sim::TimeNs>(1, net->latency());
  for (int attempt = 0;; ++attempt) {
    const sim::TimeNs attempt_start = simp->Now();
    sim::TimeNs start = 0;
    uint64_t wt = 0;
    if (chk != nullptr) {
      start = io.world->sim().Now();
      for (const CopyRun& run : io.runs) {
        chk->CheckRead(io.src, run.src_lo, run.src_lo + run.elems, start,
                       io.reader);
      }
      wt = chk->OpenWrite(start);
    }
    if (attempt == 0 && eager_publish && sig != nullptr) {
      sig->Complete(index, tiles, span_pid, span_tid);
    }
    sim::TransferOpts opts;
    opts.ack_timeout = stream->ack_timeout;
    if (stream->rail_of) {
      opts.rail = stream->rail_of(static_cast<int64_t>(index), attempt);
    }
    sim::TransferOutcome out;
    co_await net->TryTransfer(stream->src, stream->dst, bytes, opts, &out);
    if (tr != nullptr) {
      // One span per attempt, aborted retransmits included, so the timeline
      // shows the retry storm rather than just the winning attempt.
      tr->AddSpan(span_pid, span_tid, stream->chunk_label, attempt_start,
                  simp->Now(), sim::kCatComm,
                  {sim::TraceArg::Num("chunk", static_cast<double>(index)),
                   sim::TraceArg::Num("tiles", static_cast<double>(tiles)),
                   sim::TraceArg::Num("bytes", static_cast<double>(bytes)),
                   sim::TraceArg::Num("attempt", attempt),
                   sim::TraceArg::Num("rail", out.rail),
                   sim::TraceArg::Num("delivered", out.delivered ? 1 : 0)});
    }
    if (out.delivered) {
      if (chk != nullptr) {
        const sim::TimeNs end = io.world->sim().Now();
        auto s = io.src->data();
        auto d = io.dst->data();
        for (const CopyRun& run : io.runs) {
          std::copy_n(s.data() + run.src_lo, run.elems, d.data() + run.dst_lo);
          chk->RecordWrite(io.dst, run.dst_lo, run.dst_lo + run.elems, start,
                           end, io.writer);
        }
        chk->CloseWrite(wt);
      }
      break;
    }
    // Aborted attempt: nothing landed, so close the interval unrecorded.
    if (chk != nullptr) chk->CloseWrite(wt);
    if (attempt + 1 >= max_attempts) {
      throw sim::FaultError(
          stream->role.empty() ? std::string(stream->chunk_label)
                               : stream->role,
          stream->src, static_cast<int64_t>(index), attempt + 1,
          out.timed_out ? "ack timeout" : "chunk dropped");
    }
    net->NoteRetry();
    co_await sim::Delay{backoff << std::min(attempt, 10)};
  }
  if (!eager_publish && sig != nullptr) {
    sig->Complete(index, tiles, span_pid, span_tid);
  }
  done->Add(1);
}

// Self-healing rail schedule for one stream: chunks are apportioned across
// rails proportionally to surviving bandwidth (WeightedExtents over the
// min of the two endpoints' rail health) and interleaved smoothly; any
// rail-health change re-plans the stream's remaining chunks, and retry
// attempts always defer to the fabric's live least-loaded pick.
class RailScheduler {
 public:
  RailScheduler(sim::Network* net, int src, int dst, int64_t total_chunks)
      : net_(net), src_(src), dst_(dst), remaining_(total_chunks) {}

  int RailFor(int64_t /*chunk*/, int attempt) {
    if (attempt > 0) return -1;  // failover: live least-loaded rail
    if (gen_ != net_->rail_generation()) {
      gen_ = net_->rail_generation();
      Rebuild();
    }
    const int rail =
        qpos_ < queue_.size() ? queue_[qpos_++] : -1;  // -1: all rails dead
    if (remaining_ > 0) remaining_--;
    return rail;
  }

 private:
  void Rebuild() {
    queue_.clear();
    qpos_ = 0;
    const int rails = net_->rails();
    std::vector<double> health(static_cast<size_t>(rails), 0.0);
    for (int r = 0; r < rails; ++r) {
      health[static_cast<size_t>(r)] =
          std::min(net_->RailScale(src_, r), net_->RailScale(dst_, r));
    }
    std::vector<int64_t> left = WeightedExtents(remaining_, health);
    queue_.reserve(static_cast<size_t>(remaining_));
    for (int64_t i = 0; i < remaining_; ++i) {
      int best = -1;
      for (int r = 0; r < rails; ++r) {
        if (left[static_cast<size_t>(r)] > 0 &&
            (best < 0 ||
             left[static_cast<size_t>(r)] > left[static_cast<size_t>(best)])) {
          best = r;
        }
      }
      if (best < 0) break;
      queue_.push_back(best);
      left[static_cast<size_t>(best)]--;
    }
  }

  sim::Network* net_;
  int src_;
  int dst_;
  int64_t remaining_;
  uint64_t gen_ = ~0ull;  // force a build on first use
  std::vector<int> queue_;
  std::size_t qpos_ = 0;
};

}  // namespace

void ApplyLinkFaultPolicy(rt::World& world, uint64_t chunk_bytes,
                          LinkStream* stream) {
  TL_CHECK(stream->fabric != nullptr);
  stream->role = stream->name;
  sim::Network* net = stream->fabric;
  if (net->rails() > 1) {
    auto sched = std::make_shared<RailScheduler>(net, stream->src, stream->dst,
                                                 stream->num_chunks);
    stream->rail_of = [sched](int64_t chunk, int attempt) {
      return sched->RailFor(chunk, attempt);
    };
  }
  const sim::FaultPlan* plan = world.fault_plan();
  if (plan == nullptr || !plan->PerturbsFabric(net->name())) return;
  const sim::RetryPolicy& rp = plan->retry();
  stream->max_retries = rp.max_retries;
  stream->backoff_base = rp.backoff_base;
  // Expected uncontended chunk time on one rail (a rail owns 1/rails of the
  // port), scaled by the plan's generous timeout factor so fair-share
  // contention does not read as loss.
  const bool inter = net == &world.inter_fabric();
  const sim::TimeNs expect =
      inter ? world.cost().NicTransfer(chunk_bytes *
                                       static_cast<uint64_t>(net->rails()))
            : world.cost().NvlinkTransfer(chunk_bytes);
  stream->ack_timeout = static_cast<sim::TimeNs>(
      rp.timeout_factor * static_cast<double>(expect));
}

sim::Coro RunLinkStream(sim::Simulator* sim, LinkStream stream) {
  TL_CHECK(stream.fabric != nullptr);
  TL_CHECK_GT(stream.window, 0);
  sim::Flag done(sim, std::move(stream.name));
  std::size_t idx = 0;
  for (int64_t k = 0; k < stream.num_chunks; ++k) {
    LinkChunk c = stream.chunk(k);
    TL_CHECK_GT(c.tiles, 0);
    if (c.gate.flag != nullptr) {
      co_await c.gate.flag->WaitGe(c.gate.threshold);
    }
    if (idx >= static_cast<std::size_t>(stream.window)) {
      co_await done.WaitGe(idx - static_cast<std::size_t>(stream.window) + 1);
    }
    sim->Spawn(TransferChunk(&stream, idx, c.tiles, &done, c.eager_publish,
                             std::move(c.io), std::move(c.take_flow)),
               stream.chunk_label);
    ++idx;
    if (stream.trace_pid >= 0) {
      if (sim::TraceRecorder* tr = sim->trace()) {
        tr->AddCounter(stream.trace_pid, done.name() + ".window", "in_flight",
                       sim->Now(),
                       static_cast<double>(idx - done.value()));
      }
    }
  }
  co_await done.WaitGe(idx);
  if (stream.trace_pid >= 0) {
    if (sim::TraceRecorder* tr = sim->trace()) {
      tr->AddCounter(stream.trace_pid, done.name() + ".window", "in_flight",
                     sim->Now(), 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Host-driven role forms
// ---------------------------------------------------------------------------

NvlinkRingRole::NvlinkRingRole(rt::World& world, int chunk_tiles,
                               int channels)
    : world_(&world), chunk_tiles_(chunk_tiles), channels_(channels) {
  TL_CHECK_GT(chunk_tiles, 0);
  TL_CHECK_GT(channels, 0);
}

LinkStream NvlinkRingRole::Stream(
    int src, int dst, uint64_t tile_bytes, InOrderSignal* arrival,
    std::string name, const char* chunk_label, int64_t num_chunks,
    std::function<LinkChunk(int64_t)> chunk) const {
  LinkStream s;
  s.fabric = &world_->intra_fabric();
  s.trace_pid = world_->trace_pid(src);
  s.src = src;
  s.dst = dst;
  s.tile_bytes = tile_bytes;
  s.window = channels_;
  s.arrival = arrival;
  s.name = std::move(name);
  s.chunk_label = chunk_label;
  s.num_chunks = num_chunks;
  s.chunk = std::move(chunk);
  ApplyLinkFaultPolicy(*world_,
                       static_cast<uint64_t>(chunk_tiles_) * tile_bytes, &s);
  return s;
}

NicRailRole::NicRailRole(rt::World& world, int chunk_tiles, int staging_depth,
                         int peers)
    : world_(&world), chunk_tiles_(chunk_tiles) {
  TL_CHECK_GT(chunk_tiles, 0);
  TL_CHECK_GT(staging_depth, 0);
  // Clamp the per-peer staging depth by the device's NIC channel budget
  // (queue pairs shared across all `peers` concurrent rail exchanges). A
  // single-node topology has no rail peers and claims no NIC channels.
  if (peers <= 0) {
    staging_depth_ = std::max(1, staging_depth);
    return;
  }
  ResourceBudget budget = ResourceBudget::ForDevice(world.spec());
  const int granted =
      budget.ClaimFabric(FabricBinding::kNic, staging_depth * peers);
  staging_depth_ = std::max(1, granted / peers);
}

LinkStream NicRailRole::Stream(
    int src, int dst, uint64_t tile_bytes, InOrderSignal* arrival,
    std::string name, const char* chunk_label, int64_t num_chunks,
    std::function<LinkChunk(int64_t)> chunk) const {
  LinkStream s;
  s.fabric = &world_->inter_fabric();
  s.trace_pid = world_->trace_pid(src);
  s.src = src;
  s.dst = dst;
  s.tile_bytes = tile_bytes;
  s.window = staging_depth_;
  s.arrival = arrival;
  s.name = std::move(name);
  s.chunk_label = chunk_label;
  s.num_chunks = num_chunks;
  s.chunk = std::move(chunk);
  ApplyLinkFaultPolicy(*world_,
                       static_cast<uint64_t>(chunk_tiles_) * tile_bytes, &s);
  return s;
}

// ---------------------------------------------------------------------------
// Device-program role forms (NIC rail)
// ---------------------------------------------------------------------------

int64_t RailChunksPerBlock(int64_t block_rows, int64_t chunk_rows) {
  return CeilDiv(block_rows, chunk_rows);
}

int RailSourceIndex(int src_node, int my_node) {
  return src_node < my_node ? src_node : src_node - 1;
}

int RailSourceNode(int slot, int my_node) {
  return slot < my_node ? slot : slot + 1;
}

BlockProgram BuildNicRailPush(const NicRailPushParams& p) {
  TL_CHECK_GT(p.nodes, 1);
  TL_CHECK_GT(p.per_node, 0);
  TL_CHECK_GT(p.chunk_rows, 0);
  const int nodes = p.nodes;
  const int per_node = p.per_node;
  const int64_t block_rows = p.block_rows;
  const int64_t n = p.n;
  const int64_t chunk_rows = p.chunk_rows;
  const DType dtype = p.dtype;
  auto src = p.src;
  auto staging = p.staging;
  auto src_row = p.src_row;
  auto wait = p.wait;
  const int rail_base = p.rail_channel_base;
  const int64_t cpb = RailChunksPerBlock(block_rows, chunk_rows);
  const int64_t items = static_cast<int64_t>(nodes - 1) * cpb;

  // Work item -> (rail peer slot k, chunk c within the peer's block).
  auto item_of = [](const Env& e) {
    return static_cast<int64_t>(e.block_id) + e.iv(0) * e.grid;
  };
  auto peer_node_of = [cpb, per_node](const Env& e, int64_t item) {
    return RailSourceNode(static_cast<int>(item / cpb),
                          e.rank / per_node);
  };
  auto rows_of = [cpb, chunk_rows, block_rows](int64_t item) {
    const int64_t c = item % cpb;
    const int64_t lo = c * chunk_rows;
    return TileRange{lo, std::min(block_rows, lo + chunk_rows)};
  };

  TileProgramBuilder b;
  b.For("rail", [items](const Env& e) { return TilesForBlock(items, e); },
        [&](TileProgramBuilder& body) {
          body.Add(ops::ConsumerTileWait(
              "rail.wait_reduced", [=](const Env& e) {
                const int64_t item = item_of(e);
                return wait(e, peer_node_of(e, item), item % cpb);
              }));
          body.Add(ops::Load(
              "rail.load", /*acquire=*/true, [=](const Env& e) {
                const int64_t item = item_of(e);
                const TileRange rows = rows_of(item);
                const Tensor view =
                    src[static_cast<size_t>(e.rank)].Slice(
                        0, src_row(e, peer_node_of(e, item), rows.lo),
                        rows.len());
                DataSpec d;
                view.BufferRange(&d.read_lo, &d.read_hi);
                d.read_buf = view.buffer();
                return d;
              }));
          body.Add(ops::TilePushData(
              "rail.push",
              [=](const Env& e) {
                const int64_t item = item_of(e);
                const TileRange rows = rows_of(item);
                const int my_node = e.rank / per_node;
                const int peer_node = peer_node_of(e, item);
                const int peer =
                    peer_node * per_node + e.rank % per_node;
                const int64_t slot =
                    static_cast<int64_t>(
                        RailSourceIndex(my_node, peer_node)) *
                        block_rows +
                    rows.lo;
                DataSpec d;
                d.src_rank = e.rank;
                d.dst_rank = peer;
                d.bytes = static_cast<uint64_t>(rows.len()) * n *
                          DTypeSize(dtype);
                const Tensor src_view =
                    src[static_cast<size_t>(e.rank)].Slice(
                        0, src_row(e, peer_node, rows.lo), rows.len());
                const Tensor dst_view =
                    staging[static_cast<size_t>(peer)].Slice(0, slot,
                                                             rows.len());
                src_view.BufferRange(&d.read_lo, &d.read_hi);
                d.read_buf = src_view.buffer();
                dst_view.BufferRange(&d.write_lo, &d.write_hi);
                d.write_buf = dst_view.buffer();
                return d;
              },
              // Release once the chunk landed at the rail peer.
              [=](const Env& e) {
                const int64_t item = item_of(e);
                const int my_node = e.rank / per_node;
                const int peer_node = peer_node_of(e, item);
                const int peer =
                    peer_node * per_node + e.rank % per_node;
                return NotifyOne(
                    SignalSpace::kPeer, peer,
                    rail_base +
                        RailSourceIndex(my_node, peer_node) *
                            static_cast<int>(cpb) +
                        static_cast<int>(item % cpb));
              },
              /*async_dma=*/false,
              [=](const Env& e) {
                const int64_t item = item_of(e);
                const TileRange rows = rows_of(item);
                const int my_node = e.rank / per_node;
                const int peer_node = peer_node_of(e, item);
                const int peer =
                    peer_node * per_node + e.rank % per_node;
                const int64_t slot =
                    static_cast<int64_t>(
                        RailSourceIndex(my_node, peer_node)) *
                        block_rows +
                    rows.lo;
                const Tensor mine = src[static_cast<size_t>(e.rank)];
                Tensor dst = staging[static_cast<size_t>(peer)];
                const int64_t src_lo = src_row(e, peer_node, rows.lo);
                for (int64_t i = 0; i < rows.len(); ++i) {
                  for (int64_t c = 0; c < n; ++c) {
                    dst.at({slot + i, c}) = mine.at({src_lo + i, c});
                  }
                }
              }));
        });
  return b.Build();
}

BlockProgram BuildNicRailReduce(const NicRailReduceParams& p) {
  TL_CHECK_GT(p.nodes, 1);
  TL_CHECK_GT(p.per_node, 0);
  TL_CHECK_GT(p.chunk_rows, 0);
  const int nodes = p.nodes;
  const int64_t block_rows = p.block_rows;
  const int64_t n = p.n;
  const int64_t chunk_rows = p.chunk_rows;
  const DType dtype = p.dtype;
  auto src = p.src;
  auto staging = p.staging;
  auto outs = p.outs;
  auto src_row = p.src_row;
  auto wait = p.wait;
  const int rail_base = p.rail_channel_base;
  const int64_t cpb = RailChunksPerBlock(block_rows, chunk_rows);

  auto chunk_of = [](const Env& e) {
    return static_cast<int64_t>(e.block_id) + e.iv(0) * e.grid;
  };
  auto rows_of = [chunk_rows, block_rows](int64_t c) {
    const int64_t lo = c * chunk_rows;
    return TileRange{lo, std::min(block_rows, lo + chunk_rows)};
  };

  TileProgramBuilder b;
  b.For("chunk", [cpb](const Env& e) { return TilesForBlock(cpb, e); },
        [&](TileProgramBuilder& body) {
          body.Add(ops::ConsumerTileWait(
              "rail.wait_own", [=](const Env& e) {
                return wait(e, chunk_of(e));
              }));
          body.Add(ops::Load(
              "rail.load_own", /*acquire=*/true, [=](const Env& e) {
                const TileRange rows = rows_of(chunk_of(e));
                const Tensor view = src[static_cast<size_t>(e.rank)].Slice(
                    0, src_row(e, rows.lo), rows.len());
                DataSpec d;
                view.BufferRange(&d.read_lo, &d.read_hi);
                d.read_buf = view.buffer();
                return d;
              }));
          body.For(
              "peer",
              [nodes](const Env&) { return static_cast<int64_t>(nodes - 1); },
              [&](TileProgramBuilder& inner) {
                inner.Add(ops::PeerTileWait(
                    "rail.wait_arrival", [=](const Env& e) {
                      WaitSpec spec;
                      spec.space = SignalSpace::kPeer;
                      spec.waits.push_back(ChannelWait{
                          rail_base +
                              static_cast<int>(e.iv(1)) *
                                  static_cast<int>(cpb) +
                              static_cast<int>(chunk_of(e)),
                          1});
                      return spec;
                    }));
                inner.Add(ops::Load(
                    "rail.load_arrival", /*acquire=*/true,
                    [=](const Env& e) {
                      const TileRange rows = rows_of(chunk_of(e));
                      const Tensor view =
                          staging[static_cast<size_t>(e.rank)].Slice(
                              0, e.iv(1) * block_rows + rows.lo, rows.len());
                      DataSpec d;
                      view.BufferRange(&d.read_lo, &d.read_hi);
                      d.read_buf = view.buffer();
                      return d;
                    }));
                inner.Add(ops::Elementwise(
                    "rail.reduce",
                    [=](const Env& e, const sim::CostModel& cost) {
                      const TileRange rows = rows_of(chunk_of(e));
                      const uint64_t bytes =
                          3ULL * static_cast<uint64_t>(rows.len()) * n *
                          DTypeSize(dtype);
                      return cost.MemoryBound(bytes, e.grid);
                    }));
              });
          body.Add(ops::Store(
              "rail.store_out",
              [=](const Env& e) {
                const TileRange rows = rows_of(chunk_of(e));
                const Tensor view =
                    outs[static_cast<size_t>(e.rank)].Slice(0, rows.lo,
                                                            rows.len());
                DataSpec d;
                view.BufferRange(&d.write_lo, &d.write_hi);
                d.write_buf = view.buffer();
                return d;
              },
              [=](const Env& e) {
                const TileRange rows = rows_of(chunk_of(e));
                const Tensor mine = src[static_cast<size_t>(e.rank)];
                const Tensor acc = staging[static_cast<size_t>(e.rank)];
                Tensor out = outs[static_cast<size_t>(e.rank)];
                const int64_t src_lo = src_row(e, rows.lo);
                for (int64_t i = 0; i < rows.len(); ++i) {
                  for (int64_t c = 0; c < n; ++c) {
                    float v = mine.at({src_lo + i, c});
                    for (int k = 0; k + 1 < nodes; ++k) {
                      v += acc.at({k * block_rows + rows.lo + i, c});
                    }
                    out.at({rows.lo + i, c}) = v;
                  }
                }
              }));
        });
  return b.Build();
}

}  // namespace tilelink::tl
