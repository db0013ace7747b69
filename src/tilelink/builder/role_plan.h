// ResourceBudget: the resource-binding subspace of §3.1.
//
// A fused kernel's roles occupy consecutive block-id ranges on one device;
// communication roles claim their SMs first and compute roles fill the
// remainder, capped by their tile counts. The OverlapPlanner
// (overlap_gen.h) performs every claim against one ResourceBudget, so this
// is the single place the autotuner's resource-binding knob (comm SM
// count, SM vs. DMA) feeds into.
//
// TileOrder is the tile-order subspace: the m-tile visit order of a
// compute role, rotated so a chosen rank's segment is produced/consumed
// first (ring schedules).
#pragma once

#include <cstdint>

#include "sim/machine_spec.h"
#include "tilelink/kernels/kernel_common.h"
#include "tilelink/program.h"

namespace tilelink::tl {

const char* FabricBindingName(FabricBinding fabric);

// Default fabric of a §3.1 resource binding: SM roles move tiles over
// NVLink, DMA roles occupy copy engines.
FabricBinding FabricForResource(CommResource r);

// Compute-role m-tile visit order (§3.1 tile order).
enum class TileOrder {
  kRowMajor,        // natural order, no rotation
  kOwnerFirst,      // start at this rank's own segment (AG consumers: local
                    // data is ready first)
  kNextRankFirst,   // start at the right neighbor's segment (RS producers:
                    // the ring consumes that segment first)
};

const char* TileOrderName(TileOrder order);

// Rotated m-tile index: visit order `raw_m` -> actual tile, with the
// segment of (rank + offset) mapped to the front. Degenerates to raw_m when
// tiles_m is not evenly divisible across ranks.
int64_t SwizzleTileM(int64_t raw_m, int64_t tiles_m, int64_t tiles_m_per_rank,
                     int rank, int ranks, TileOrder order);

// Splits one device's SMs among the roles of a fused kernel, in role order,
// and tracks per-fabric channel budgets so communication roles bound to
// different fabrics (NVLink channels, NIC queue pairs, copy engines) are
// capped independently of the SM split.
class ResourceBudget {
 public:
  explicit ResourceBudget(int total_sms) : total_(total_sms) {}

  // Budget for one device of `spec`: its SMs, its copy engines, and the
  // fabric channel counts the runtime exposes (NVLink SM-copy channels are
  // effectively unbounded at kernel granularity; NIC queue pairs are not).
  static ResourceBudget ForDevice(const sim::MachineSpec& spec);

  int total() const { return total_; }
  int used() const { return used_; }
  int remaining() const { return total_ - used_; }

  // Communication role: claims min(want, work_items) blocks. Comm roles are
  // sized by configuration, not by what is left — a misconfigured split
  // (comm SMs >= all SMs) still leaves at least one compute block below.
  int ClaimComm(int want, int64_t work_items);

  // Compute role: claims min(tiles, remaining) blocks, at least 1.
  int ClaimCompute(int64_t tiles);

  // Caps the number of channels a role may open on `fabric` (negative:
  // unlimited, the default).
  void SetFabricChannels(FabricBinding fabric, int capacity);

  // Claims up to `want` channels on `fabric`; returns the granted count
  // (at least 1 so a clamped role still makes progress, like ClaimCompute).
  int ClaimFabric(FabricBinding fabric, int want);

 private:
  static constexpr int kNumFabrics = 3;
  int total_;
  int used_ = 0;
  int fabric_capacity_[kNumFabrics] = {-1, -1, -1};  // -1: unlimited
  int fabric_used_[kNumFabrics] = {0, 0, 0};
};

}  // namespace tilelink::tl
