// Tile-centric mapping (paper §4.1): fS (tile id -> tensor shape range),
// fR (tile id -> device rank) and fC (tile id -> communication channel).
//
// Static mappings are affine and fully determined at compile time (tensor-
// parallel MLP, sequence-parallel attention). Dynamic mappings are lookup
// tables whose *access pattern* is compiled but whose *values* are filled at
// runtime by dynamic logic such as MoE routing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/inline_vector.h"
#include "common/math_utils.h"

namespace tilelink::tl {

struct TileRange {
  int64_t lo = 0;
  int64_t hi = 0;  // exclusive
  int64_t len() const { return hi - lo; }
};

// One (channel, threshold) wait entry: block until the local barrier word
// `channel` reaches `threshold`.
struct ChannelWait {
  int channel = 0;
  uint64_t threshold = 0;
  friend bool operator==(const ChannelWait&, const ChannelWait&) = default;
};

// The wait list of one wait op. A tile usually waits on a few channels, so
// they stay inline; longer lists (MoE gathers) spill to the heap.
using WaitList = InlineVector<ChannelWait, 4>;

// Affine mapping for a 1-D sharded dimension of extent `m`, sharded across
// `ranks`, with `channels_per_rank` barrier channels per rank and producer
// tile extent `tile_m`. Implements exactly the formulas of §4.1:
//   M_per_rank    = ceil(M / R)
//   M_per_channel = ceil(M / (R * C))
//   range(t)      = [t*Tmp, t*Tmp + Tmp)
//   src_rank(t)   = floor(t / floor(M_per_rank / Tmp))
//   channel(t)    = floor(t / floor(M_per_channel / Tmp))
class StaticMapping {
 public:
  StaticMapping(int64_t m, int tile_m, int ranks, int channels_per_rank);

  // Channel density to use when a kernel config leaves it unspecified
  // (requested <= 0): one channel per comm tile within each rank's shard —
  // the finest granularity the counting protocol supports.
  static int ResolveChannelsPerRank(int64_t m, int tile_m, int ranks,
                                    int requested);

  int64_t m() const { return m_; }
  int tile_m() const { return tile_m_; }
  int ranks() const { return ranks_; }
  int channels_per_rank() const { return channels_per_rank_; }
  int num_channels() const { return ranks_ * channels_per_rank_; }
  int64_t num_tiles() const { return num_tiles_; }
  int64_t tiles_per_rank() const { return tiles_per_rank_; }
  int64_t tiles_per_channel() const { return tiles_per_channel_; }

  TileRange ShapeRange(int64_t tile_id) const;  // fS
  int Rank(int64_t tile_id) const;              // fR
  int Channel(int64_t tile_id) const;           // fC (global channel id)
  // The channel covering row `row` (fC over rows instead of tiles).
  int ChannelOfRow(int64_t row) const {
    TL_DCHECK(row >= 0 && row < m_);
    return static_cast<int>(row / m_per_channel_);
  }

  // Number of producer tiles mapped to a channel (the notify count a
  // consumer of the whole channel must wait for).
  uint64_t TilesInChannel(int channel) const;

  // Consumer helper: every channel overlapping rows [lo, hi), each with the
  // threshold that guarantees all producer tiles covering that channel are
  // done. Counting barriers cannot distinguish *which* tiles in a channel
  // completed, so the dependency granularity is the channel (§3.2.1).
  WaitList WaitsForRows(int64_t lo, int64_t hi) const;

  // Rows covered by one channel.
  TileRange ChannelRows(int channel) const;

 private:
  int64_t m_;
  int tile_m_;
  int ranks_;
  int channels_per_rank_;
  int64_t m_per_rank_;
  int64_t m_per_channel_;
  int64_t tiles_per_rank_;
  int64_t tiles_per_channel_;
  int64_t num_tiles_;
};

// Lookup-table mapping (§4.1, dynamic): fS_low/fS_high/fR/fC plus per-tile
// wait lists derived by the runtime logic that fills the tables.
class DynamicMapping {
 public:
  void Resize(int64_t num_tiles);
  int64_t num_tiles() const { return static_cast<int64_t>(fr_.size()); }

  void SetTile(int64_t tile_id, TileRange range, int rank, int channel);
  // Copies `waits` into the table's shared pool; a tile set twice keeps
  // only its last list.
  void SetWaits(int64_t tile_id, const std::vector<ChannelWait>& waits);

  TileRange ShapeRange(int64_t tile_id) const {
    return TileRange{fs_low_[Idx(tile_id)], fs_high_[Idx(tile_id)]};
  }
  int Rank(int64_t tile_id) const { return fr_[Idx(tile_id)]; }
  int Channel(int64_t tile_id) const { return fc_[Idx(tile_id)]; }
  std::span<const ChannelWait> Waits(int64_t tile_id) const {
    const WaitSlice& w = waits_[Idx(tile_id)];
    return {wait_pool_.data() + w.begin, w.count};
  }

 private:
  size_t Idx(int64_t t) const {
    TL_DCHECK(t >= 0 && t < num_tiles());
    return static_cast<size_t>(t);
  }
  std::vector<int64_t> fs_low_;
  std::vector<int64_t> fs_high_;
  std::vector<int> fr_;
  std::vector<int> fc_;
  // Every tile's wait list, packed into one pool.
  struct WaitSlice {
    size_t begin = 0;
    size_t count = 0;
  };
  std::vector<WaitSlice> waits_;
  std::vector<ChannelWait> wait_pool_;
};

}  // namespace tilelink::tl
