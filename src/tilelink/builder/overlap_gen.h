// OverlapPlanner: the scheduling pass that turns a declarative OverlapSpec
// (tile_deps.h) plus the fabric topology (MachineSpec: nodes x devices,
// NIC rails, copy engines) into the complete role schedule of a fused
// kernel — work-item counts, block/channel claims against the
// ResourceBudget, ring chunk schedules (including the small-m column-split
// fix) and NIC rail windows.
//
// Every fused kernel is built this way: the kernel declares its spec, the
// planner claims each role's blocks and channels in declared order, and
// BuildFromPlan turns the granted counts into the FusedKernelSpec.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/machine_spec.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/builder/tile_deps.h"
#include "tilelink/program.h"

namespace tilelink::tl {

// Ring chunks per destination block below which the planner splits the
// ring role column-wise (the ROADMAP small-m fix): fewer chunks than this
// cannot pipeline against the producer, so the fused kernel loses to the
// layer-level compose.
inline constexpr int kMinRingChunksPerBlock = 8;

// One scheduled role: its work-item count and the blocks and channels the
// budget granted it given every earlier role's claims.
struct PlannedRole {
  std::string name;
  OverlapRoleKind kind = OverlapRoleKind::kCompute;
  FabricBinding fabric = FabricBinding::kNvlink;
  bool device = true;  // false: host DMA program, no device role
  int64_t work_items = 0;
  int blocks = 0;
  int channels = 0;
  // Ring-family schedule: column splits (1 = row-wise only) and row
  // chunks per destination block.
  int col_splits = 1;
  int64_t chunks_per_block = 0;
  // Rail schedule: granted staging window per peer.
  int window = 0;
};

struct OverlapPlan {
  std::string kernel;
  std::vector<PlannedRole> roles;

  const PlannedRole* Find(const std::string& name) const;
  const PlannedRole& At(const std::string& name) const;  // TL_CHECKs
  std::string Describe() const;
};

class OverlapPlanner {
 public:
  explicit OverlapPlanner(const sim::MachineSpec& spec) : spec_(spec) {}

  // TL_CHECKs spec.Validate() passes, then schedules every role in
  // declared order against one device's ResourceBudget.
  OverlapPlan Plan(const OverlapSpec& spec) const;

 private:
  sim::MachineSpec spec_;
};

// Builds the fused kernel from a plan: one Role per device role, in plan
// order, sized by the planner's granted blocks and channels. `program_of`
// maps a planned role to its BlockProgram (link-role geometry is already
// resolved, so kernels only supply the per-role tile programs).
FusedKernelSpec BuildFromPlan(
    const OverlapPlan& plan,
    const std::function<BlockProgram(const PlannedRole&)>& program_of);

}  // namespace tilelink::tl
