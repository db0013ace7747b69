// Pure tile-granularity math (no simulated time). These are the functional
// payloads executed by kernel blocks when the world runs in functional mode;
// baselines and TileLink-generated kernels share them, so numerics are
// identical across methods by construction and any mismatch in tests points
// at scheduling/synchronization bugs, not math drift.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace tilelink::compute {

// C[m0:m0+bm, n0:n0+bn] (+)= A[m0:m0+bm, k0:k0+bk] @ B[k0:k0+bk, n0:n0+bn].
// Tile bounds are clipped to tensor shapes; `accumulate=false` overwrites.
void GemmTile(const Tensor& a, const Tensor& b, Tensor& c, int64_t m0,
              int64_t bm, int64_t n0, int64_t bn, int64_t k0, int64_t bk,
              bool accumulate);

// Online-softmax flash-attention state for one (bq x head_dim) query block.
struct FlashState {
  std::vector<float> row_max;  // m_i
  std::vector<float> row_sum;  // l_i
  std::vector<float> acc;      // [bq x head_dim] un-normalized output

  void Reset(int64_t bq, int64_t head_dim);
};

// One flash step: scores = Q[q0:q0+bq] K[kv0:kv0+bkv]^T * scale, online
// softmax update into state. q/k/v are [S, D] row-major views for one head.
void FlashAttnStep(const Tensor& q, const Tensor& k, const Tensor& v,
                   FlashState& state, int64_t q0, int64_t bq, int64_t kv0,
                   int64_t bkv, float scale);

// Writes normalized flash output into out[q0:q0+bq, :].
void FlashFinalize(const FlashState& state, Tensor& out, int64_t q0,
                   int64_t bq);

// out[r, c] (+)= in[r, c] over a tile.
void AddTile(const Tensor& in, Tensor& out, int64_t r0, int64_t rows,
             int64_t c0, int64_t cols, bool accumulate);

}  // namespace tilelink::compute
