// Grouped GEMM for MoE experts with optional fused gather/scatter (the
// vLLM-style fused op the paper builds on for Figure 9).
//
// Layouts:
//   tokens  [M, K]            activations (possibly gathered from all ranks)
//   weights [E, K, N]         per-expert weight shard
//   out     [M * topk, N]     slot order: row token*topk+slot
//
// The fused kernel processes sorted-by-expert slot chunks, gathering token
// rows and scattering output rows inside the GEMM mainloop. The unfused path
// (cuBLAS analog) must materialize a sorted activation copy first and
// scatter results afterwards — see baselines/vllm_moe.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compute/gemm.h"
#include "compute/moe_routing.h"
#include "runtime/stream.h"
#include "runtime/world.h"
#include "tensor/tensor.h"

namespace tilelink::compute {

struct GroupGemmOptions {
  GemmTiling tiling{128, 128, 64};
  // Extra per-step cost factor for the in-loop gather/scatter addressing.
  double fused_gather_overhead = 1.05;
  std::string name = "group_gemm";
};

// Fused gather + grouped GEMM + scatter, one block per group tile:
//   out[slot_row(token,slot), :] = tokens[token, :] @ weights[expert, :, :]
std::shared_ptr<rt::KernelState> LaunchGroupGemmFused(
    rt::RankCtx& ctx, rt::Stream& stream, const Tensor& tokens,
    const Tensor& weights, Tensor out, const MoeRouting& routing,
    const GroupGemmOptions& options = {});

// Host reference for the same computation.
void GroupGemmRef(const Tensor& tokens, const Tensor& weights, Tensor& out,
                  const MoeRouting& routing);

}  // namespace tilelink::compute
