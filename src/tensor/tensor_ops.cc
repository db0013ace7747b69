#include "tensor/tensor_ops.h"

#include <bit>
#include <cmath>
#include <vector>

namespace tilelink {
namespace {

// Applies fn to every linear buffer offset of the view, in row-major order:
// the outer indices step like an odometer, and each innermost row is one
// strided run.
template <typename Fn>
void ForEachOffset(const Tensor& t, const Fn& fn) {
  if (t.numel() == 0) return;
  const int nd = t.ndim();
  if (nd == 0) {
    fn(t.offset());
    return;
  }
  const size_t inner = static_cast<size_t>(nd - 1);
  const int64_t row_len = t.shape()[inner];
  const int64_t step = t.strides()[inner];
  TensorDims idx;
  for (size_t i = 0; i < inner; ++i) idx.push_back(0);
  while (true) {
    int64_t row = t.offset();
    for (size_t i = 0; i < inner; ++i) row += idx[i] * t.strides()[i];
    for (int64_t j = 0; j < row_len; ++j) fn(row + j * step);
    size_t i = inner;
    for (; i > 0; --i) {
      if (++idx[i - 1] < t.shape()[i - 1]) break;
      idx[i - 1] = 0;
    }
    if (i == 0) break;
  }
}

}  // namespace

void FillRandom(Tensor& t, Rng& rng, float scale) {
  auto data = t.buffer()->data();
  ForEachOffset(t, [&](int64_t off) {
    data[static_cast<size_t>(off)] = rng.Uniform(-scale, scale);
  });
}

void FillConstant(Tensor& t, float value) {
  auto data = t.buffer()->data();
  ForEachOffset(t,
                [&](int64_t off) { data[static_cast<size_t>(off)] = value; });
}

void FillIota(Tensor& t, float base, float step) {
  auto data = t.buffer()->data();
  int64_t i = 0;
  ForEachOffset(t, [&](int64_t off) {
    data[static_cast<size_t>(off)] = base + static_cast<float>(i++) * step;
  });
}

void FillIntLattice(Tensor& t, uint32_t seed, int range) {
  TL_CHECK_GT(range, 0);
  auto data = t.buffer()->data();
  int64_t i = 0;
  ForEachOffset(t, [&](int64_t off) {
    // Knuth multiplicative hash over (seed, position): well-spread, cheap,
    // and identical on every platform.
    const uint32_t h =
        (seed + static_cast<uint32_t>(i++) * 2654435761u) * 2654435761u;
    const int v = static_cast<int>(h % static_cast<uint32_t>(range)) -
                  range / 2;
    data[static_cast<size_t>(off)] = static_cast<float>(v);
  });
}

void CopyTensor(const Tensor& src, Tensor& dst) {
  TL_CHECK(src.shape() == dst.shape());
  auto s = src.buffer()->data();
  auto d = dst.buffer()->data();
  std::vector<int64_t> src_offs;
  src_offs.reserve(static_cast<size_t>(src.numel()));
  ForEachOffset(src, [&](int64_t off) { src_offs.push_back(off); });
  int64_t i = 0;
  ForEachOffset(dst, [&](int64_t off) {
    d[static_cast<size_t>(off)] = s[static_cast<size_t>(src_offs[i++])];
  });
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  TL_CHECK(a.shape() == b.shape());
  auto da = a.buffer()->data();
  auto db = b.buffer()->data();
  std::vector<int64_t> a_offs;
  a_offs.reserve(static_cast<size_t>(a.numel()));
  ForEachOffset(a, [&](int64_t off) { a_offs.push_back(off); });
  float max_diff = 0.0f;
  int64_t i = 0;
  ForEachOffset(b, [&](int64_t off) {
    const float diff = std::fabs(da[static_cast<size_t>(a_offs[i++])] -
                                 db[static_cast<size_t>(off)]);
    if (diff > max_diff) max_diff = diff;
  });
  return max_diff;
}

bool BitExact(const Tensor& a, const Tensor& b) {
  TL_CHECK(a.shape() == b.shape());
  auto da = a.buffer()->data();
  auto db = b.buffer()->data();
  std::vector<int64_t> a_offs;
  a_offs.reserve(static_cast<size_t>(a.numel()));
  ForEachOffset(a, [&](int64_t off) { a_offs.push_back(off); });
  bool ok = true;
  int64_t i = 0;
  ForEachOffset(b, [&](int64_t off) {
    const float va = da[static_cast<size_t>(a_offs[i++])];
    const float vb = db[static_cast<size_t>(off)];
    if (std::bit_cast<uint32_t>(va) != std::bit_cast<uint32_t>(vb)) ok = false;
  });
  return ok;
}

double Sum(const Tensor& t) {
  auto data = t.buffer()->data();
  double acc = 0.0;
  ForEachOffset(t, [&](int64_t off) { acc += data[static_cast<size_t>(off)]; });
  return acc;
}

}  // namespace tilelink
