// Shared communication roles for row-sharded AllGather in the three §3.1
// resource bindings: SM pull blocks, SM push blocks, or copy engines driven
// by host primitives. ag_gemm and ag_moe used to carry identical copies of
// these programs; the tile mapping (and thus the gathered tensor) is the
// only thing that varies.
#pragma once

#include "comm/collectives.h"
#include "runtime/world.h"
#include "tilelink/block_channel.h"
#include "tilelink/kernels/kernel_common.h"
#include "tilelink/mapping.h"
#include "tilelink/program.h"

namespace tilelink::tl {

struct RowAllGatherParams {
  StaticMapping map;        // row mapping of the gathered dimension
  comm::SymTensor shards;   // [m/R, width] per rank
  comm::SymTensor fulls;    // [m, width] per rank
  int ranks = 0;
  int64_t m_per_rank = 0;
};

// Pull mode (Figure 3b left): every rank pulls each remote tile into its own
// gathered copy and notifies its local consumers. Ring tile order: every
// rank starts at its own shard and walks the ring, spreading concurrent
// pulls across source ports.
BlockProgram BuildRowAllGatherPull(const RowAllGatherParams& params);

// Push mode (Figure 3b right): every rank pushes its own shard's tiles to
// all peers (right neighbor first) and notifies the remote consumers.
BlockProgram BuildRowAllGatherPush(const RowAllGatherParams& params);

// The SM binding of `comm`: pull blocks for kSmPull, push blocks otherwise
// (a kDma AllGather runs on the host, DmaRowAllGather below).
BlockProgram BuildRowAllGather(const RowAllGatherParams& params,
                               CommResource comm);

// DMA resource: host primitives drive copy engines, one copy per channel
// chunk in ring order (own shard first); each completed chunk notifies the
// producer-consumer barrier it covers with the chunk's tile count.
sim::Coro DmaRowAllGather(rt::RankCtx& ctx, BlockChannel bc,
                          RowAllGatherParams params);

}  // namespace tilelink::tl
