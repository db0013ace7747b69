// The AG+GEMM consumer role shared by ag_gemm (flat AllGather) and
// ag_gemm_hier (hierarchical AllGather): persistent GEMM blocks over the
// gathered activation, each tile waiting only on the producer channels
// covering its rows. The m-tile visit order is the tile-order subspace of
// §3.1 (own rows first by default). Extracted so the overlap generator
// can feed the same consumer from any producer schedule — the wait spec
// is the only coupling point.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/collectives.h"
#include "compute/gemm.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/mapping.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct AgConsumerParams {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  compute::GemmTiling tiling{128, 256, 64};
  comm::SymTensor a_full;  // [m, k] gathered activation, per rank
  comm::SymTensor b;       // [k, n] per rank
  comm::SymTensor c;       // [m, n] per rank
  int ranks = 0;
  TileOrder order = TileOrder::kOwnerFirst;
  // Producer-consumer waits covering gathered rows [lo, hi).
  std::function<WaitList(int64_t lo, int64_t hi)> waits_for_rows;
};

BlockProgram BuildAgGemmConsumer(const AgConsumerParams& p);

}  // namespace tilelink::tl
