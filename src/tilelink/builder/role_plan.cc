#include "tilelink/builder/role_plan.h"

#include <algorithm>

namespace tilelink::tl {

const char* FabricBindingName(FabricBinding fabric) {
  switch (fabric) {
    case FabricBinding::kNvlink:
      return "nvlink";
    case FabricBinding::kNic:
      return "nic";
    case FabricBinding::kCopyEngine:
      return "copy_engine";
  }
  return "?";
}

FabricBinding FabricForResource(CommResource r) {
  return r == CommResource::kDma ? FabricBinding::kCopyEngine
                                 : FabricBinding::kNvlink;
}

const char* TileOrderName(TileOrder order) {
  switch (order) {
    case TileOrder::kRowMajor:
      return "row_major";
    case TileOrder::kOwnerFirst:
      return "owner_first";
    case TileOrder::kNextRankFirst:
      return "next_rank_first";
  }
  return "?";
}

int64_t SwizzleTileM(int64_t raw_m, int64_t tiles_m, int64_t tiles_m_per_rank,
                     int rank, int ranks, TileOrder order) {
  if (order == TileOrder::kRowMajor || tiles_m_per_rank <= 0) return raw_m;
  const int first_rank =
      order == TileOrder::kOwnerFirst ? rank : (rank + 1) % ranks;
  return (raw_m + first_rank * tiles_m_per_rank) % tiles_m;
}

ResourceBudget ResourceBudget::ForDevice(const sim::MachineSpec& spec) {
  ResourceBudget budget(spec.sms_per_device);
  // NVLink SM-copy channels are plentiful at kernel granularity (one per
  // comm block); copy engines and NIC queue pairs are the scarce resources.
  budget.SetFabricChannels(FabricBinding::kCopyEngine,
                           spec.copy_engines_per_device);
  budget.SetFabricChannels(FabricBinding::kNic, spec.nic_queue_pairs);
  return budget;
}

void ResourceBudget::SetFabricChannels(FabricBinding fabric, int capacity) {
  fabric_capacity_[static_cast<int>(fabric)] = capacity;
}

int ResourceBudget::ClaimFabric(FabricBinding fabric, int want) {
  const int f = static_cast<int>(fabric);
  int granted = std::max(want, 1);
  if (fabric_capacity_[f] >= 0) {
    granted = std::max(1, std::min(granted,
                                   fabric_capacity_[f] - fabric_used_[f]));
  }
  fabric_used_[f] += granted;
  return granted;
}

int ResourceBudget::ClaimComm(int want, int64_t work_items) {
  const int blocks =
      static_cast<int>(std::min<int64_t>(want, work_items));
  used_ += blocks;
  return blocks;
}

int ResourceBudget::ClaimCompute(int64_t tiles) {
  const int blocks = static_cast<int>(std::min<int64_t>(
      std::max<int64_t>(tiles, 1), std::max(1, total_ - used_)));
  used_ += blocks;
  return blocks;
}

}  // namespace tilelink::tl
