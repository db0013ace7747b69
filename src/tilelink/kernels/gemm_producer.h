// Shared partial-GEMM producer role (paper Figure 4 lines 2-9): compute a
// partial [m, n] tile, store it, then producer_tile_notify the row-chunk
// barrier covering its rows. gemm_rs and the compose baseline's GEMM-only
// kernel run the identical producer — only the roles consuming its tiles
// differ — so the program builder lives here instead of being copied per
// kernel.
#pragma once

#include "comm/collectives.h"
#include "compute/gemm.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/mapping.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct PartialGemmParams {
  int64_t m = 0;  // global rows
  int64_t k = 0;  // local reduction dim (already sharded)
  int64_t n = 0;  // output columns
  compute::GemmTiling tiling{128, 256, 64};
  // Producer channels over the output rows (placeholder default; kernels
  // always overwrite it with their real mapping).
  StaticMapping map{1, 1, 1, 1};
  comm::SymTensor a;       // [m, k] per rank
  comm::SymTensor b;       // [k, n] per rank
  comm::SymTensor out;     // [m, n] partials per rank
  int ranks = 0;
  // m-tile visit order (§3.1): produce the segment the ring consumes first.
  TileOrder order = TileOrder::kNextRankFirst;
};

// Total (m-tile, n-tile) pairs — the compute role's work-item count.
int64_t PartialGemmTiles(const PartialGemmParams& params);

BlockProgram BuildPartialGemmProducer(const PartialGemmParams& params);

}  // namespace tilelink::tl
