// Tile-centric primitives (paper Table 3).
//
// Device-side primitives are Op constructors consumed by TileProgramBuilder,
// so kernels in tilelink/kernels read like the paper's Figures 4-6:
//   producer_tile_notify  -> ops::ProducerTileNotify(...)
//   consumer_tile_wait    -> ops::ConsumerTileWait(...)
//   peer_tile_notify/wait -> ops::PeerTileNotify / ops::PeerTileWait
//   tile_push_data        -> ops::TilePushData (sync SM push or async DMA)
//   tile_pull_data        -> ops::TilePullData
// Host-side primitives are coroutines / calls used by host programs:
//   rank_copy_data        -> RankCopyData (copy engine)
//   rank_notify/rank_wait -> RankNotify / RankWait
#pragma once

#include <functional>
#include <string>

#include "comm/p2p.h"
#include "runtime/world.h"
#include "tensor/tensor.h"
#include "tilelink/block_channel.h"
#include "tilelink/program.h"

namespace tilelink::tl {

enum class NotifyMode { kP2P, kBroadcast };

// Per-row run geometry of a 2-D view: true (with pitch = row stride, run =
// row width) when the view's rows are narrower than their pitch — i.e. a
// column strip of a row-major tensor, whose flat buffer range also covers
// the neighbouring strips' elements.
inline bool RowRunGeometry(const Tensor& view, int64_t* pitch, int64_t* run) {
  if (view.ndim() != 2 || view.dim(0) <= 1) return false;
  if (view.strides()[1] != 1 || view.strides()[0] <= view.dim(1)) return false;
  *pitch = view.strides()[0];
  *run = view.dim(1);
  return true;
}

// Populate a DataSpec's read / write side from a tensor view. Column-strip
// views additionally record the per-row runs so the consistency checker
// audits the exact elements touched — concurrent transfers of disjoint
// strips would flag false races under the conservative flat range.
inline void SetReadView(DataSpec& d, const Tensor& view) {
  view.BufferRange(&d.read_lo, &d.read_hi);
  d.read_buf = view.buffer();
  if (!RowRunGeometry(view, &d.read_pitch, &d.read_run)) {
    d.read_pitch = d.read_run = 0;
  }
}
inline void SetWriteView(DataSpec& d, const Tensor& view) {
  view.BufferRange(&d.write_lo, &d.write_hi);
  d.write_buf = view.buffer();
  if (!RowRunGeometry(view, &d.write_pitch, &d.write_run)) {
    d.write_pitch = d.write_run = 0;
  }
}

namespace ops {

// Blocks until all producer tiles this consumer depends on are done.
Op ConsumerTileWait(std::string label,
                    std::function<WaitSpec(const Env&)> wait);

// Marks a producer tile done and notifies its consumer tile(s).
Op ProducerTileNotify(std::string label,
                      std::function<NotifySpec(const Env&)> notify);

// Peer-to-peer (same-operator, cross-rank) signalling.
Op PeerTileWait(std::string label, std::function<WaitSpec(const Env&)> wait);
Op PeerTileNotify(std::string label,
                  std::function<NotifySpec(const Env&)> notify);

// Sends a tile of data to a remote tensor. When `async_dma` is true the
// transfer is handed to a copy engine (hybrid mapping) and `notify_after`
// fires on completion; otherwise the block drives it and continues after
// the data lands.
Op TilePushData(std::string label, std::function<DataSpec(const Env&)> data,
                std::function<NotifySpec(const Env&)> notify_after = nullptr,
                bool async_dma = false,
                std::function<void(const Env&)> math = nullptr);

// Loads tile(s) of data from remote tensor(s).
Op TilePullData(std::string label, std::function<DataSpec(const Env&)> data,
                std::function<void(const Env&)> math = nullptr);

// Tile load from local memory; `acquire` marks producer-written data.
Op Load(std::string label, bool acquire,
        std::function<DataSpec(const Env&)> data = nullptr);

// Tile store to local memory.
Op Store(std::string label, std::function<DataSpec(const Env&)> data = nullptr,
         std::function<void(const Env&)> math = nullptr);

// Tensor-core tile step.
Op Mma(std::string label,
       std::function<sim::TimeNs(const Env&, const sim::CostModel&)> cost,
       std::function<void(const Env&)> math = nullptr);

// Memory-bound tile op.
Op Elementwise(std::string label,
               std::function<sim::TimeNs(const Env&, const sim::CostModel&)> cost,
               std::function<void(const Env&)> math = nullptr);

}  // namespace ops

// -----------------------------------------------------------------------
// Host-side primitives
// -----------------------------------------------------------------------

// rank_copy_data: peer-to-peer copy on a copy engine owned by `ctx`'s rank.
sim::Coro RankCopyData(rt::RankCtx& ctx, Tensor src, Tensor dst);

// rank_notify: raise host barrier `channel` on `target_rank` by `inc`.
void RankNotify(rt::RankCtx& ctx, const BlockChannel& bc, int target_rank,
                int channel, uint64_t inc = 1);

// rank_wait: block the calling host coroutine until the local host barrier
// `channel` reaches `threshold`.
sim::Flag::Awaiter RankWait(const BlockChannel& bc, int channel,
                            uint64_t threshold);

// Single-entry NotifySpec — the common case of a producer/peer notify
// raising one channel on one target rank.
NotifySpec NotifyOne(SignalSpace space, int target, int channel,
                     uint64_t inc = 1);

}  // namespace tilelink::tl
