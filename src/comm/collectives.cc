#include "comm/collectives.h"

#include "comm/p2p.h"
#include "common/math_utils.h"
#include "sim/coro_utils.h"
#include "tensor/tensor_ops.h"

namespace tilelink::comm {
namespace {

// Rendezvous + NCCL-analog setup cost paid by every collective call.
sim::Coro CollectiveEntry(rt::RankCtx& ctx) {
  co_await ctx.world->comm_barrier().Arrive();
  co_await sim::Delay{ctx.world->spec().collective_setup_latency};
}

// Billed time of the SM-side reduction epilogue over `bytes` (read partial,
// read acc, write acc), using the ~20 SMs NCCL-class kernels occupy.
sim::TimeNs ReduceCost(rt::World& world, uint64_t bytes) {
  return world.cost().MemoryBound(3 * bytes, 20);
}

}  // namespace

sim::Coro AllGather(rt::RankCtx& ctx, const SymTensor& shards,
                    const SymTensor& outs) {
  rt::World& world = *ctx.world;
  const int r = ctx.rank;
  const int R = world.size();
  TL_CHECK_EQ(static_cast<int>(shards.size()), R);
  TL_CHECK_EQ(static_cast<int>(outs.size()), R);
  const int64_t m_per_rank = shards[static_cast<size_t>(r)].dim(0);
  TL_CHECK_EQ(outs[static_cast<size_t>(r)].dim(0), m_per_rank * R);

  co_await CollectiveEntry(ctx);

  // Place the local shard (HBM-local copy).
  Tensor local_dst =
      outs[static_cast<size_t>(r)].Slice(0, r * m_per_rank, m_per_rank);
  std::vector<sim::Coro> work;
  work.push_back(CopyTensorSM(world, shards[static_cast<size_t>(r)],
                               local_dst));
  for (int p = 0; p < R; ++p) {
    if (p == r) continue;
    Tensor dst =
        outs[static_cast<size_t>(r)].Slice(0, p * m_per_rank, m_per_rank);
    work.push_back(CopyTensorSM(world, shards[static_cast<size_t>(p)], dst));
  }
  co_await sim::WhenAll(std::move(work));
}

sim::Coro ReduceScatter(rt::RankCtx& ctx, const SymTensor& ins,
                        const SymTensor& outs) {
  rt::World& world = *ctx.world;
  const int r = ctx.rank;
  const int R = world.size();
  TL_CHECK_EQ(static_cast<int>(ins.size()), R);
  TL_CHECK_EQ(static_cast<int>(outs.size()), R);
  const int64_t m_per_rank = outs[static_cast<size_t>(r)].dim(0);
  TL_CHECK_EQ(ins[static_cast<size_t>(r)].dim(0), m_per_rank * R);

  co_await CollectiveEntry(ctx);

  const uint64_t chunk_bytes =
      outs[static_cast<size_t>(r)].logical_bytes();
  // Timing: R-1 ring steps, each moving one accumulated chunk to the
  // neighbor and reducing it there on SMs.
  for (int s = 0; s < R - 1; ++s) {
    co_await world.Transfer((r - 1 + R) % R, r, chunk_bytes);
    co_await sim::Delay{ReduceCost(world, chunk_bytes)};
    co_await world.comm_barrier().Arrive();
  }

  // Functional result (rank-ordered fp32 accumulation).
  if (world.functional()) {
    Tensor out = outs[static_cast<size_t>(r)];
    for (int64_t i = 0; i < m_per_rank; ++i) {
      for (int64_t c = 0; c < out.dim(1); ++c) {
        float acc = 0.0f;
        for (int p = 0; p < R; ++p) {
          acc += ins[static_cast<size_t>(p)].at({r * m_per_rank + i, c});
        }
        out.at({i, c}) = acc;
      }
    }
  }
  int64_t lo = 0, hi = 0;
  outs[static_cast<size_t>(r)].BufferRange(&lo, &hi);
  world.checker().RecordWrite(outs[static_cast<size_t>(r)].buffer(), lo, hi,
                              world.sim().Now(), world.sim().Now(),
                              "reduce_scatter");
}

void AllGatherRef(const SymTensor& shards, const SymTensor& outs) {
  const int R = static_cast<int>(shards.size());
  const int64_t m_per_rank = shards[0].dim(0);
  for (int r = 0; r < R; ++r) {
    for (int p = 0; p < R; ++p) {
      Tensor dst = outs[static_cast<size_t>(r)].Slice(0, p * m_per_rank,
                                                      m_per_rank);
      CopyTensor(shards[static_cast<size_t>(p)], dst);
    }
  }
}

void ReduceScatterRef(const SymTensor& ins, const SymTensor& outs) {
  const int R = static_cast<int>(ins.size());
  const int64_t m_per_rank = outs[0].dim(0);
  for (int r = 0; r < R; ++r) {
    Tensor out = outs[static_cast<size_t>(r)];
    for (int64_t i = 0; i < m_per_rank; ++i) {
      for (int64_t c = 0; c < out.dim(1); ++c) {
        float acc = 0.0f;
        for (int p = 0; p < R; ++p) {
          acc += ins[static_cast<size_t>(p)].at({r * m_per_rank + i, c});
        }
        out.at({i, c}) = acc;
      }
    }
  }
}

}  // namespace tilelink::comm
