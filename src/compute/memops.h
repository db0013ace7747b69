// Memory-bound utility kernels: gather/scatter of token rows and top-k
// reduce. These model the standalone epilogue/prologue kernels that unfused baselines must launch
// (and pay launch latency + HBM traffic for), which fused approaches avoid.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compute/moe_routing.h"
#include "runtime/stream.h"
#include "runtime/world.h"
#include "tensor/tensor.h"

namespace tilelink::compute {

// dst[i, :] = src[row_index[i], :] for i in [0, dst.M). Used by the unfused
// MoE baseline to materialize sorted activations.
std::shared_ptr<rt::KernelState> LaunchGatherRows(
    rt::RankCtx& ctx, rt::Stream& stream, const Tensor& src, Tensor dst,
    std::vector<int> row_index, const std::string& name = "gather_rows");

// dst[row_index[i], :] = src[i, :].
std::shared_ptr<rt::KernelState> LaunchScatterRows(
    rt::RankCtx& ctx, rt::Stream& stream, const Tensor& src, Tensor dst,
    std::vector<int> row_index, const std::string& name = "scatter_rows");

// out[t, :] = sum_k weights[t*topk+k] * in[t*topk+k, :] (MoE combine).
std::shared_ptr<rt::KernelState> LaunchTopkReduce(
    rt::RankCtx& ctx, rt::Stream& stream, const Tensor& in, Tensor out,
    std::vector<float> weights, int topk,
    const std::string& name = "topk_reduce");

void TopkReduceRef(const Tensor& in, Tensor& out,
                   const std::vector<float>& weights, int topk);

}  // namespace tilelink::compute
