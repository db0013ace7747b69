#include "tilelink/builder/overlap_gen.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_utils.h"
#include "common/string_utils.h"
#include "tilelink/builder/link_roles.h"

namespace tilelink::tl {

namespace {

const TileSpaceSpec& SpaceOf(const OverlapSpec& spec,
                             const std::string& name) {
  for (const TileSpaceSpec& s : spec.spaces) {
    if (s.name == name) return s;
  }
  TL_CHECK_MSG(false, "unknown tile space " + name);
  __builtin_unreachable();
}

int64_t RefTiles(const OverlapSpec& spec, const TileRef& ref) {
  const TileSpaceSpec& s = SpaceOf(spec, ref.space);
  return ref.whole() ? s.tiles : ref.hi - ref.lo;
}

// Small-m fix: a ring role with fewer than kMinRingChunksPerBlock row
// chunks per destination block cannot pipeline against its producer, so
// split each chunk column-wise into the smallest divisor of `cols` that
// restores the chunk count (falling back to the largest divisor tried
// when none reaches it).
int RingColSplits(const OverlapRoleSpec& r, int64_t cpb) {
  if (!r.allow_col_split || cpb >= kMinRingChunksPerBlock) return 1;
  int best = 1;
  const int limit = static_cast<int>(std::min<int64_t>(r.cols, 64));
  for (int s = 2; s <= limit; ++s) {
    if (r.cols % s != 0) continue;
    best = s;
    if (cpb * s >= kMinRingChunksPerBlock) break;
  }
  return best;
}

}  // namespace

const PlannedRole* OverlapPlan::Find(const std::string& name) const {
  for (const PlannedRole& r : roles) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

const PlannedRole& OverlapPlan::At(const std::string& name) const {
  const PlannedRole* r = Find(name);
  TL_CHECK_MSG(r != nullptr, "no planned role named " + name);
  return *r;
}

std::string OverlapPlan::Describe() const {
  std::string out = StrFormat("overlap_plan %s\n", kernel.c_str());
  for (const PlannedRole& r : roles) {
    out += StrFormat(
        "  role %s kind=%s fabric=%s%s work=%lld blocks=%d channels=%d",
        r.name.c_str(), OverlapRoleKindName(r.kind),
        FabricBindingName(r.fabric), r.device ? "" : " host",
        static_cast<long long>(r.work_items), r.blocks, r.channels);
    if (r.chunks_per_block > 0) {
      out += StrFormat(" chunks_per_block=%lld col_splits=%d",
                       static_cast<long long>(r.chunks_per_block),
                       r.col_splits);
    }
    if (r.window > 0) out += StrFormat(" window=%d", r.window);
    out += "\n";
  }
  return out;
}

OverlapPlan OverlapPlanner::Plan(const OverlapSpec& spec) const {
  const std::string err = spec.Validate();
  TL_CHECK_MSG(err.empty(), "OverlapSpec(" + spec.kernel + "): " + err);

  OverlapPlan plan;
  plan.kernel = spec.kernel;
  // One device budget, claimed in declared role order.
  ResourceBudget budget = ResourceBudget::ForDevice(spec_);
  for (const OverlapRoleSpec& r : spec.roles) {
    PlannedRole p;
    p.name = r.name;
    p.kind = r.kind;
    switch (r.kind) {
      case OverlapRoleKind::kCompute: {
        int64_t tiles = r.work_items;
        if (tiles < 0) {
          tiles = 0;
          for (const TileRef& ref : r.writes) tiles += RefTiles(spec, ref);
        }
        p.work_items = tiles;
        p.blocks = budget.ClaimCompute(tiles);
        p.channels = 0;
        break;
      }
      case OverlapRoleKind::kComm: {
        p.fabric = FabricForResource(r.resource);
        p.work_items = r.work_items;
        p.blocks = budget.ClaimComm(r.want_sms, p.work_items);
        p.channels = budget.ClaimFabric(p.fabric, p.blocks);
        break;
      }
      case OverlapRoleKind::kRowAllGather: {
        if (r.resource == CommResource::kDma) {
          p.device = false;
          p.fabric = FabricBinding::kCopyEngine;
          p.work_items = RefTiles(spec, r.writes.front());
          break;
        }
        p.work_items = r.resource == CommResource::kSmPull
                           ? RefTiles(spec, r.writes.front())
                           : RefTiles(spec, r.reads.front());
        p.blocks = budget.ClaimComm(r.want_sms, p.work_items);
        p.channels = budget.ClaimFabric(FabricBinding::kNvlink, p.blocks);
        break;
      }
      case OverlapRoleKind::kRingReduceScatter:
      case OverlapRoleKind::kHierAgRing: {
        const int64_t cpb = r.block_rows / r.chunk_rows;
        p.chunks_per_block = cpb;
        p.col_splits = RingColSplits(r, cpb);
        const int64_t per_split =
            r.kind == OverlapRoleKind::kRingReduceScatter
                ? static_cast<int64_t>(r.seg_blocks) * cpb
                : cpb;
        p.work_items = per_split * p.col_splits;
        p.blocks = budget.ClaimComm(r.want_sms, p.work_items);
        p.channels = budget.ClaimFabric(FabricBinding::kNvlink, p.blocks);
        break;
      }
      case OverlapRoleKind::kNicRailPush: {
        const int64_t rail_rows =
            static_cast<int64_t>(r.nic_chunk_blocks) * r.chunk_rows;
        const int64_t cpb = RailChunksPerBlock(r.block_rows, rail_rows);
        p.chunks_per_block = cpb;
        p.window = RailWindow(spec_, r.staging_depth, r.peers);
        p.work_items = static_cast<int64_t>(r.peers) * cpb;
        const int rail_blocks = static_cast<int>(std::min<int64_t>(
            static_cast<int64_t>(p.window) * r.peers, p.work_items));
        p.fabric = FabricBinding::kNic;
        p.blocks = budget.ClaimComm(rail_blocks, p.work_items);
        p.channels = budget.ClaimFabric(FabricBinding::kNic, rail_blocks);
        break;
      }
      case OverlapRoleKind::kNicRailReduce: {
        const int64_t rail_rows =
            static_cast<int64_t>(r.nic_chunk_blocks) * r.chunk_rows;
        const int64_t cpb = RailChunksPerBlock(r.block_rows, rail_rows);
        p.chunks_per_block = cpb;
        p.work_items = r.work_items >= 0 ? r.work_items : cpb;
        p.blocks = budget.ClaimComm(r.want_sms, p.work_items);
        p.channels = budget.ClaimFabric(FabricBinding::kNvlink, p.blocks);
        break;
      }
      case OverlapRoleKind::kHostDma: {
        p.device = false;
        p.fabric = FabricBinding::kCopyEngine;
        break;
      }
    }
    plan.roles.push_back(std::move(p));
  }
  return plan;
}

FusedKernelSpec BuildFromPlan(
    const OverlapPlan& plan,
    const std::function<BlockProgram(const PlannedRole&)>& program_of) {
  FusedKernelSpec spec;
  spec.name = plan.kernel;
  for (const PlannedRole& r : plan.roles) {
    if (!r.device) continue;
    spec.roles.push_back(
        Role{r.name, r.blocks, program_of(r), r.fabric, r.channels});
  }
  return spec;
}

}  // namespace tilelink::tl
