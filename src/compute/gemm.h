// Standalone tiled GEMM kernel on the simulated device (the cuBLAS analog
// used by baselines) plus a naive host reference for tests.
#pragma once

#include <memory>
#include <string>

#include "runtime/stream.h"
#include "runtime/world.h"
#include "tensor/tensor.h"

namespace tilelink::compute {

struct GemmTiling {
  int bm = 128;
  int bn = 256;
  int bk = 64;

  friend bool operator==(const GemmTiling&, const GemmTiling&) = default;
};

struct GemmOptions {
  GemmTiling tiling;
  std::string name = "gemm";
};

// C[M,N] = A[M,K] @ B[K,N] launched on `stream`, one block per output tile;
// returns the kernel state (await state->Wait() or synchronize the stream
// for completion).
std::shared_ptr<rt::KernelState> LaunchGemm(rt::RankCtx& ctx,
                                            rt::Stream& stream,
                                            const Tensor& a, const Tensor& b,
                                            Tensor c,
                                            const GemmOptions& options = {});

// Host reference: c = a @ b, fp32.
void GemmRef(const Tensor& a, const Tensor& b, Tensor& c);

// Analytic time of a dense GEMM on one device with `sms` SMs available
// (used by cost sanity tests, not by the kernels themselves).
sim::TimeNs AnalyticGemmTime(const sim::CostModel& cost, int64_t m, int64_t n,
                             int64_t k, const GemmTiling& tiling, int sms);

}  // namespace tilelink::compute
