#include "tilelink/mapping.h"

#include <algorithm>

namespace tilelink::tl {

StaticMapping::StaticMapping(int64_t m, int tile_m, int ranks,
                             int channels_per_rank)
    : m_(m), tile_m_(tile_m), ranks_(ranks),
      channels_per_rank_(channels_per_rank) {
  TL_CHECK_GT(m, 0);
  TL_CHECK_GT(tile_m, 0);
  TL_CHECK_GT(ranks, 0);
  TL_CHECK_GT(channels_per_rank, 0);
  m_per_rank_ = CeilDiv<int64_t>(m, ranks);
  m_per_channel_ = CeilDiv<int64_t>(m, static_cast<int64_t>(ranks) *
                                           channels_per_rank);
  TL_CHECK_MSG(m_per_rank_ % tile_m == 0,
               "per-rank extent " << m_per_rank_
                                  << " must be a multiple of tile_m "
                                  << tile_m);
  TL_CHECK_MSG(m_per_channel_ % tile_m == 0,
               "per-channel extent " << m_per_channel_
                                     << " must be a multiple of tile_m "
                                     << tile_m);
  tiles_per_rank_ = m_per_rank_ / tile_m;
  tiles_per_channel_ = m_per_channel_ / tile_m;
  num_tiles_ = CeilDiv<int64_t>(m, tile_m);
}

int StaticMapping::ResolveChannelsPerRank(int64_t m, int tile_m, int ranks,
                                          int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(CeilDiv<int64_t>(m, ranks) / tile_m);
}

TileRange StaticMapping::ShapeRange(int64_t tile_id) const {
  TL_DCHECK(tile_id >= 0 && tile_id < num_tiles_);
  const int64_t lo = tile_id * tile_m_;
  return TileRange{lo, std::min<int64_t>(lo + tile_m_, m_)};
}

int StaticMapping::Rank(int64_t tile_id) const {
  TL_DCHECK(tile_id >= 0 && tile_id < num_tiles_);
  return static_cast<int>(tile_id / tiles_per_rank_);
}

int StaticMapping::Channel(int64_t tile_id) const {
  TL_DCHECK(tile_id >= 0 && tile_id < num_tiles_);
  return static_cast<int>(tile_id / tiles_per_channel_);
}

uint64_t StaticMapping::TilesInChannel(int channel) const {
  TL_DCHECK(channel >= 0 && channel < num_channels());
  const int64_t lo = static_cast<int64_t>(channel) * tiles_per_channel_;
  const int64_t hi =
      std::min<int64_t>(lo + tiles_per_channel_, num_tiles_);
  return static_cast<uint64_t>(std::max<int64_t>(0, hi - lo));
}

TileRange StaticMapping::ChannelRows(int channel) const {
  const int64_t lo = static_cast<int64_t>(channel) * m_per_channel_;
  return TileRange{lo, std::min<int64_t>(lo + m_per_channel_, m_)};
}

WaitList StaticMapping::WaitsForRows(int64_t lo, int64_t hi) const {
  TL_CHECK_LE(0, lo);
  TL_CHECK_LE(lo, hi);
  TL_CHECK_LE(hi, m_);
  WaitList waits;
  if (lo == hi) return waits;
  const int first = static_cast<int>(lo / m_per_channel_);
  const int last = static_cast<int>((hi - 1) / m_per_channel_);
  waits.reserve(static_cast<size_t>(last - first + 1));
  for (int c = first; c <= last; ++c) {
    waits.push_back(ChannelWait{c, TilesInChannel(c)});
  }
  return waits;
}

void DynamicMapping::Resize(int64_t num_tiles) {
  const size_t n = static_cast<size_t>(num_tiles);
  fs_low_.assign(n, 0);
  fs_high_.assign(n, 0);
  fr_.assign(n, 0);
  fc_.assign(n, 0);
  waits_.assign(n, {});
  wait_pool_.clear();
}

void DynamicMapping::SetTile(int64_t tile_id, TileRange range, int rank,
                             int channel) {
  fs_low_[Idx(tile_id)] = range.lo;
  fs_high_[Idx(tile_id)] = range.hi;
  fr_[Idx(tile_id)] = rank;
  fc_[Idx(tile_id)] = channel;
}

void DynamicMapping::SetWaits(int64_t tile_id,
                              const std::vector<ChannelWait>& waits) {
  waits_[Idx(tile_id)] = WaitSlice{wait_pool_.size(), waits.size()};
  wait_pool_.insert(wait_pool_.end(), waits.begin(), waits.end());
}

}  // namespace tilelink::tl
