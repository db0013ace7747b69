#include "compute/memops.h"

#include "common/math_utils.h"

namespace tilelink::compute {
namespace {

constexpr int kRowsPerBlock = 64;

// Generic memory-bound row-chunk kernel: bills HBM time for `bytes_per_row`
// traffic and runs `math(row0, rows)` over its chunk in functional mode.
std::shared_ptr<rt::KernelState> LaunchRowKernel(
    rt::Stream& stream, int64_t total_rows, uint64_t bytes_per_row,
    std::function<void(int64_t, int64_t)> math, const std::string& name) {
  rt::Device* dev = stream.device();
  const int64_t chunks = std::max<int64_t>(1, CeilDiv<int64_t>(total_rows, kRowsPerBlock));
  const int grid = static_cast<int>(
      std::min<int64_t>(chunks, dev->spec().sms_per_device));
  auto body = [=](rt::BlockCtx bctx) -> sim::Coro {
    const sim::CostModel cost(bctx.dev->spec());
    for (int64_t chunk = bctx.block_id; chunk < chunks; chunk += bctx.grid) {
      const int64_t row0 = chunk * kRowsPerBlock;
      const int64_t rows = std::min<int64_t>(kRowsPerBlock, total_rows - row0);
      if (rows <= 0) continue;
      co_await sim::Delay{cost.MemoryBound(
          bytes_per_row * static_cast<uint64_t>(rows), bctx.grid)};
      if (bctx.functional() && math) {
        math(row0, rows);
      }
    }
  };
  return stream.LaunchKernel(grid, body, name);
}

}  // namespace

std::shared_ptr<rt::KernelState> LaunchGatherRows(
    rt::RankCtx& /*ctx*/, rt::Stream& stream, const Tensor& src, Tensor dst,
    std::vector<int> row_index, const std::string& name) {
  TL_CHECK_EQ(static_cast<int64_t>(row_index.size()), dst.dim(0));
  TL_CHECK_EQ(src.dim(1), dst.dim(1));
  const int64_t n = dst.dim(1);
  const uint64_t bytes_per_row =
      2ULL * static_cast<uint64_t>(n) * DTypeSize(dst.dtype());
  auto idx = std::make_shared<std::vector<int>>(std::move(row_index));
  auto math = [src, dst, idx, n](int64_t row0, int64_t rows) mutable {
    for (int64_t r = row0; r < row0 + rows; ++r) {
      const int s = (*idx)[static_cast<size_t>(r)];
      for (int64_t c = 0; c < n; ++c) {
        dst.at({r, c}) = s >= 0 ? src.at({s, c}) : 0.0f;
      }
    }
  };
  return LaunchRowKernel(stream, dst.dim(0), bytes_per_row, math, name);
}

std::shared_ptr<rt::KernelState> LaunchScatterRows(
    rt::RankCtx& /*ctx*/, rt::Stream& stream, const Tensor& src, Tensor dst,
    std::vector<int> row_index, const std::string& name) {
  TL_CHECK_EQ(static_cast<int64_t>(row_index.size()), src.dim(0));
  TL_CHECK_EQ(src.dim(1), dst.dim(1));
  const int64_t n = src.dim(1);
  const uint64_t bytes_per_row =
      2ULL * static_cast<uint64_t>(n) * DTypeSize(src.dtype());
  auto idx = std::make_shared<std::vector<int>>(std::move(row_index));
  auto math = [src, dst, idx, n](int64_t row0, int64_t rows) mutable {
    for (int64_t r = row0; r < row0 + rows; ++r) {
      const int d = (*idx)[static_cast<size_t>(r)];
      if (d < 0) continue;
      for (int64_t c = 0; c < n; ++c) {
        dst.at({d, c}) = src.at({r, c});
      }
    }
  };
  return LaunchRowKernel(stream, src.dim(0), bytes_per_row, math, name);
}

std::shared_ptr<rt::KernelState> LaunchTopkReduce(
    rt::RankCtx& /*ctx*/, rt::Stream& stream, const Tensor& in, Tensor out,
    std::vector<float> weights, int topk, const std::string& name) {
  TL_CHECK_EQ(in.dim(0), out.dim(0) * topk);
  TL_CHECK_EQ(in.dim(1), out.dim(1));
  const int64_t n = out.dim(1);
  const uint64_t bytes_per_row =
      (static_cast<uint64_t>(topk) + 1) * static_cast<uint64_t>(n) *
      DTypeSize(out.dtype());
  auto w = std::make_shared<std::vector<float>>(std::move(weights));
  auto math = [in, out, w, topk, n](int64_t row0, int64_t rows) mutable {
    for (int64_t t = row0; t < row0 + rows; ++t) {
      for (int64_t c = 0; c < n; ++c) {
        float acc = 0.0f;
        for (int kk = 0; kk < topk; ++kk) {
          const int64_t slot = t * topk + kk;
          acc += (*w)[static_cast<size_t>(slot)] * in.at({slot, c});
        }
        out.at({t, c}) = acc;
      }
    }
  };
  return LaunchRowKernel(stream, out.dim(0), bytes_per_row, math, name);
}

void TopkReduceRef(const Tensor& in, Tensor& out,
                   const std::vector<float>& weights, int topk) {
  for (int64_t t = 0; t < out.dim(0); ++t) {
    for (int64_t c = 0; c < out.dim(1); ++c) {
      float acc = 0.0f;
      for (int kk = 0; kk < topk; ++kk) {
        const int64_t slot = t * topk + kk;
        acc += weights[static_cast<size_t>(slot)] * in.at({slot, c});
      }
      out.at({t, c}) = acc;
    }
  }
}

}  // namespace tilelink::compute
