#include "compute/flash_attention.h"

#include <cmath>

#include "common/math_utils.h"
#include "compute/tile_math.h"

namespace tilelink::compute {
namespace {

sim::Coro FlashBlockBody(rt::BlockCtx bctx, Tensor q, Tensor k, Tensor v,
                         Tensor out, FlashOptions options, int64_t q_tiles) {
  const sim::CostModel cost(bctx.dev->spec());
  const int64_t head_dim = q.dim(2);
  const int64_t skv = k.dim(1);
  const int64_t kv_steps = CeilDiv<int64_t>(skv, options.block_kv);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const sim::TimeNs step = static_cast<sim::TimeNs>(
      cost.FlashAttnTileStep(options.block_q, options.block_kv,
                             static_cast<int>(head_dim)) /
      options.throughput_factor);
  const int64_t head = bctx.block_id / q_tiles;
  const int64_t q0 = (bctx.block_id % q_tiles) * options.block_q;
  co_await sim::Delay{cost.BlockPrologue()};
  const bool functional = bctx.functional();
  Tensor qh, kh, vh, oh;
  FlashState state;
  if (functional) {
    qh = q.Select(0, head);
    kh = k.Select(0, head);
    vh = v.Select(0, head);
    oh = out.Select(0, head);
    state.Reset(options.block_q, head_dim);
  }
  // Bill every kv step as one repeated delay, then do the steps' math:
  // q/k/v are ready at launch and `state` is block-local, so the numbers
  // are the same as interleaving each step with its delay.
  if (kv_steps > 0) co_await sim::Delay{step, kv_steps};
  if (functional) {
    for (int64_t s = 0; s < kv_steps; ++s) {
      FlashAttnStep(qh, kh, vh, state, q0, options.block_q,
                    s * options.block_kv, options.block_kv, scale);
    }
  }
  co_await sim::Delay{cost.BlockEpilogue()};
  if (functional) {
    FlashFinalize(state, oh, q0, options.block_q);
  }
}

}  // namespace

std::shared_ptr<rt::KernelState> LaunchFlashAttention(
    rt::RankCtx& /*ctx*/, rt::Stream& stream, const Tensor& q, const Tensor& k,
    const Tensor& v, Tensor out, const FlashOptions& options) {
  TL_CHECK_EQ(q.ndim(), 3);
  TL_CHECK_EQ(k.ndim(), 3);
  TL_CHECK_EQ(q.dim(0), k.dim(0));
  TL_CHECK_EQ(q.dim(2), k.dim(2));
  TL_CHECK(k.shape() == v.shape());
  TL_CHECK(q.shape() == out.shape());
  const int64_t q_tiles = CeilDiv<int64_t>(q.dim(1), options.block_q);
  auto body = [=](rt::BlockCtx bctx) -> sim::Coro {
    return FlashBlockBody(bctx, q, k, v, out, options, q_tiles);
  };
  return stream.LaunchKernel(static_cast<int>(q.dim(0) * q_tiles), body,
                             options.name);
}

void AttentionRef(const Tensor& q, const Tensor& k, const Tensor& v,
                  Tensor& out) {
  const int64_t bh = q.dim(0);
  const int64_t sq = q.dim(1);
  const int64_t skv = k.dim(1);
  const int64_t d = q.dim(2);
  const float sc = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<float> scores(static_cast<size_t>(skv));
  for (int64_t h = 0; h < bh; ++h) {
    for (int64_t i = 0; i < sq; ++i) {
      float max_s = -1e30f;
      for (int64_t j = 0; j < skv; ++j) {
        float s = 0.0f;
        for (int64_t x = 0; x < d; ++x) {
          s += q.at({h, i, x}) * k.at({h, j, x});
        }
        s *= sc;
        scores[static_cast<size_t>(j)] = s;
        max_s = std::max(max_s, s);
      }
      float denom = 0.0f;
      for (int64_t j = 0; j < skv; ++j) {
        scores[static_cast<size_t>(j)] =
            std::exp(scores[static_cast<size_t>(j)] - max_s);
        denom += scores[static_cast<size_t>(j)];
      }
      for (int64_t x = 0; x < d; ++x) {
        float acc = 0.0f;
        for (int64_t j = 0; j < skv; ++j) {
          acc += scores[static_cast<size_t>(j)] * v.at({h, j, x});
        }
        out.at({h, i, x}) = acc / denom;
      }
    }
  }
}

}  // namespace tilelink::compute
