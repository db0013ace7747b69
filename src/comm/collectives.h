// Operator-centric collective communication — the NCCL analog (paper §2.1).
//
// These are *synchronizing, coarse-grained* primitives: each call pays the
// collective setup latency, rendezvous with all peers, and only returns when
// the local result is complete. That coarse synchronization is exactly the
// inefficiency TileLink's tile-centric primitives remove; keeping it honest
// here is what makes the non-overlap baselines meaningful.
//
// SPMD usage: every rank calls the same function with its own RankCtx and
// the shared per-rank tensor vectors (symmetric allocation order).
#pragma once

#include <vector>

#include "runtime/world.h"
#include "sim/coro.h"
#include "tensor/tensor.h"

namespace tilelink::comm {

// Per-rank tensor list indexed by rank (symmetric heap entries).
using SymTensor = std::vector<Tensor>;

// out[rank] = concat over r of shards[r] along dim 0, NVSwitch-style: every
// rank pulls every peer's shard simultaneously.
// shards[r]: [M/R, N] on rank r; outs[r]: [M, N] on rank r.
sim::Coro AllGather(rt::RankCtx& ctx, const SymTensor& shards,
                    const SymTensor& outs);

// outs[rank] = sum over r of ins[r] restricted to row-block `rank`, as a
// neighbor ring of R-1 steps.
// ins[r]: [M, N] partial sums on rank r; outs[r]: [M/R, N].
sim::Coro ReduceScatter(rt::RankCtx& ctx, const SymTensor& ins,
                        const SymTensor& outs);

// Host references for tests (operate on per-rank tensors directly).
void AllGatherRef(const SymTensor& shards, const SymTensor& outs);
void ReduceScatterRef(const SymTensor& ins, const SymTensor& outs);

}  // namespace tilelink::comm
