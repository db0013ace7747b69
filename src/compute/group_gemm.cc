#include "compute/group_gemm.h"

#include "common/math_utils.h"

namespace tilelink::compute {
namespace {

// Math for one group block: gather token rows, GEMM against the expert's
// weights, scatter into slot-order output rows.
void GroupBlockMath(const Tensor& tokens, const Tensor& weights, Tensor& out,
                    const MoeRouting& routing, const GroupBlock& gb) {
  const int64_t k = tokens.dim(1);
  const Tensor w = weights.Select(0, gb.expert);  // [K, N]
  for (int r = 0; r < gb.rows; ++r) {
    const int slot =
        routing.sorted_slots[static_cast<size_t>(gb.sorted_row_start + r)];
    const int token = slot / routing.topk;
    for (int c = 0; c < gb.n_cols; ++c) {
      float acc = 0.0f;
      for (int64_t x = 0; x < k; ++x) {
        acc += tokens.at({token, x}) * w.at({x, gb.n_start + c});
      }
      out.at({slot, gb.n_start + c}) = acc;
    }
  }
}

sim::Coro GroupGemmBlockBody(rt::BlockCtx bctx, Tensor tokens, Tensor weights,
                             Tensor out, std::shared_ptr<MoeRouting> routing,
                             std::shared_ptr<std::vector<GroupBlock>> blocks,
                             GroupGemmOptions options) {
  const sim::CostModel cost(bctx.dev->spec());
  const GemmTiling& t = options.tiling;
  const int64_t k = tokens.dim(1);
  const int64_t k_steps = CeilDiv<int64_t>(k, t.bk);
  const sim::TimeNs step = static_cast<sim::TimeNs>(
      cost.GemmTileStep(t.bm, t.bn, t.bk) * options.fused_gather_overhead);
  co_await sim::Delay{cost.BlockPrologue()};
  if (k_steps > 0) co_await sim::Delay{step, k_steps};
  co_await sim::Delay{cost.BlockEpilogue()};
  if (bctx.functional()) {
    GroupBlockMath(tokens, weights, out, *routing,
                   (*blocks)[static_cast<size_t>(bctx.block_id)]);
  }
}

}  // namespace

std::shared_ptr<rt::KernelState> LaunchGroupGemmFused(
    rt::RankCtx& /*ctx*/, rt::Stream& stream, const Tensor& tokens,
    const Tensor& weights, Tensor out, const MoeRouting& routing,
    const GroupGemmOptions& options) {
  TL_CHECK_EQ(weights.ndim(), 3);
  TL_CHECK_EQ(weights.dim(0), routing.num_experts);
  TL_CHECK_EQ(tokens.dim(1), weights.dim(1));
  TL_CHECK_EQ(out.dim(0), routing.total_slots());
  TL_CHECK_EQ(out.dim(1), weights.dim(2));
  auto blocks = std::make_shared<std::vector<GroupBlock>>(MakeGroupBlocks(
      routing, out.dim(1), options.tiling.bm, options.tiling.bn));
  if (blocks->empty()) {
    blocks->push_back(GroupBlock{0, 0, 0, 0, 0});  // degenerate: empty launch
  }
  const int grid = static_cast<int>(blocks->size());
  // Copy: the kernel may outlive the caller's routing object.
  auto routing_copy = std::make_shared<MoeRouting>(routing);
  auto body = [=](rt::BlockCtx bctx) -> sim::Coro {
    return GroupGemmBlockBody(bctx, tokens, weights, out, routing_copy,
                              blocks, options);
  };
  return stream.LaunchKernel(grid, body, options.name);
}

void GroupGemmRef(const Tensor& tokens, const Tensor& weights, Tensor& out,
                  const MoeRouting& routing) {
  const int64_t k = tokens.dim(1);
  const int64_t n = out.dim(1);
  for (int64_t slot = 0; slot < routing.total_slots(); ++slot) {
    const int e = routing.topk_ids[static_cast<size_t>(slot)];
    const int token = static_cast<int>(slot) / routing.topk;
    const Tensor w = weights.Select(0, e);
    for (int64_t c = 0; c < n; ++c) {
      float acc = 0.0f;
      for (int64_t x = 0; x < k; ++x) {
        acc += tokens.at({token, x}) * w.at({x, c});
      }
      out.at({slot, c}) = acc;
    }
  }
}

}  // namespace tilelink::compute
