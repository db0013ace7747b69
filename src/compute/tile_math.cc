#include "compute/tile_math.h"

#include <algorithm>
#include <cmath>

namespace tilelink::compute {
namespace {

int64_t ClipLen(int64_t start, int64_t want, int64_t total) {
  return std::max<int64_t>(0, std::min(start + want, total) - start);
}

}  // namespace

void GemmTile(const Tensor& a, const Tensor& b, Tensor& c, int64_t m0,
              int64_t bm, int64_t n0, int64_t bn, int64_t k0, int64_t bk,
              bool accumulate) {
  const int64_t m_len = ClipLen(m0, bm, c.dim(0));
  const int64_t n_len = ClipLen(n0, bn, c.dim(1));
  const int64_t k_len = ClipLen(k0, bk, a.dim(1));
  if (m_len == 0 || n_len == 0) return;
  // Rows by pointer, in at()'s accumulation order: element (i, j) of a view
  // v sits at v.offset() + i * stride0 + j * stride1.
  TL_DCHECK(k_len == 0 ||
            (m0 + m_len <= a.dim(0) && k0 + k_len <= b.dim(0) &&
             n0 + n_len <= b.dim(1)));
  const float* ad = a.buffer()->data().data();
  const float* bd = b.buffer()->data().data();
  float* cd = c.buffer()->data().data();
  const int64_t as0 = a.strides()[0], as1 = a.strides()[1];
  const int64_t bs0 = b.strides()[0], bs1 = b.strides()[1];
  const int64_t cs0 = c.strides()[0], cs1 = c.strides()[1];
  for (int64_t m = 0; m < m_len; ++m) {
    const int64_t a_row = a.offset() + (m0 + m) * as0 + k0 * as1;
    const int64_t c_row = c.offset() + (m0 + m) * cs0 + n0 * cs1;
    for (int64_t n = 0; n < n_len; ++n) {
      const int64_t b_col = b.offset() + k0 * bs0 + (n0 + n) * bs1;
      float& out = cd[c_row + n * cs1];
      float acc = accumulate ? out : 0.0f;
      for (int64_t k = 0; k < k_len; ++k) {
        acc += ad[a_row + k * as1] * bd[b_col + k * bs0];
      }
      out = acc;
    }
  }
}

void FlashState::Reset(int64_t bq, int64_t head_dim) {
  row_max.assign(static_cast<size_t>(bq), -1e30f);
  row_sum.assign(static_cast<size_t>(bq), 0.0f);
  acc.assign(static_cast<size_t>(bq * head_dim), 0.0f);
}

void FlashAttnStep(const Tensor& q, const Tensor& k, const Tensor& v,
                   FlashState& state, int64_t q0, int64_t bq, int64_t kv0,
                   int64_t bkv, float scale) {
  const int64_t d = q.dim(1);
  const int64_t q_len = ClipLen(q0, bq, q.dim(0));
  const int64_t kv_len = ClipLen(kv0, bkv, k.dim(0));
  std::vector<float> scores(static_cast<size_t>(kv_len));
  for (int64_t i = 0; i < q_len; ++i) {
    float tile_max = -1e30f;
    for (int64_t j = 0; j < kv_len; ++j) {
      float s = 0.0f;
      for (int64_t x = 0; x < d; ++x) {
        s += q.at({q0 + i, x}) * k.at({kv0 + j, x});
      }
      s *= scale;
      scores[static_cast<size_t>(j)] = s;
      tile_max = std::max(tile_max, s);
    }
    const size_t si = static_cast<size_t>(i);
    const float new_max = std::max(state.row_max[si], tile_max);
    const float correction = std::exp(state.row_max[si] - new_max);
    state.row_sum[si] *= correction;
    for (int64_t x = 0; x < d; ++x) {
      state.acc[static_cast<size_t>(i * d + x)] *= correction;
    }
    for (int64_t j = 0; j < kv_len; ++j) {
      const float p = std::exp(scores[static_cast<size_t>(j)] - new_max);
      state.row_sum[si] += p;
      for (int64_t x = 0; x < d; ++x) {
        state.acc[static_cast<size_t>(i * d + x)] += p * v.at({kv0 + j, x});
      }
    }
    state.row_max[si] = new_max;
  }
}

void FlashFinalize(const FlashState& state, Tensor& out, int64_t q0,
                   int64_t bq) {
  const int64_t d = out.dim(1);
  const int64_t q_len = ClipLen(q0, bq, out.dim(0));
  for (int64_t i = 0; i < q_len; ++i) {
    const float denom = state.row_sum[static_cast<size_t>(i)];
    const float inv = denom > 0.0f ? 1.0f / denom : 0.0f;
    for (int64_t x = 0; x < d; ++x) {
      out.at({q0 + i, x}) = state.acc[static_cast<size_t>(i * d + x)] * inv;
    }
  }
}

void AddTile(const Tensor& in, Tensor& out, int64_t r0, int64_t rows,
             int64_t c0, int64_t cols, bool accumulate) {
  const int64_t r_len = ClipLen(r0, rows, out.dim(0));
  const int64_t c_len = ClipLen(c0, cols, out.dim(1));
  for (int64_t r = 0; r < r_len; ++r) {
    for (int64_t c = 0; c < c_len; ++c) {
      const float v = in.at({r0 + r, c0 + c});
      if (accumulate) {
        out.at({r0 + r, c0 + c}) += v;
      } else {
        out.at({r0 + r, c0 + c}) = v;
      }
    }
  }
}

}  // namespace tilelink::compute
