// FlashAttention kernel on the simulated device plus an eager host reference.
// The same kernel body serves both the high-efficiency flash path and the
// de-rated "framework eager attention" path used by the Torch baseline in
// Figure 10 (throughput_factor < 1 models non-fused softmax stages).
#pragma once

#include <memory>
#include <string>

#include "runtime/stream.h"
#include "runtime/world.h"
#include "tensor/tensor.h"

namespace tilelink::compute {

struct FlashOptions {
  int block_q = 128;
  int block_kv = 128;
  // Relative throughput vs. a tuned flash kernel: 1.0 for flash, ~0.2 for an
  // eager multi-kernel softmax pipeline.
  double throughput_factor = 1.0;
  std::string name = "flash_attn";
};

// q: [BH, Sq, D], k/v: [BH, Skv, D], out: [BH, Sq, D]; scores are scaled by
// 1/sqrt(D), one block per (head, q tile).
std::shared_ptr<rt::KernelState> LaunchFlashAttention(
    rt::RankCtx& ctx, rt::Stream& stream, const Tensor& q, const Tensor& k,
    const Tensor& v, Tensor out, const FlashOptions& options = {});

// Host reference: eager softmax(q k^T / sqrt(d)) v per head.
void AttentionRef(const Tensor& q, const Tensor& k, const Tensor& v,
                  Tensor& out);

}  // namespace tilelink::compute
