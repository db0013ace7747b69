#include "tensor/tensor.h"

namespace tilelink {
namespace {

TensorDims RowMajorStrides(const TensorDims& shape) {
  TensorDims strides;
  for (size_t i = 0; i < shape.size(); ++i) strides.push_back(1);
  for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i) {
    strides[static_cast<size_t>(i)] =
        strides[static_cast<size_t>(i) + 1] * shape[static_cast<size_t>(i) + 1];
  }
  return strides;
}

}  // namespace

Tensor::Tensor(rt::Buffer* buf, TensorDims shape, DType dtype, int64_t offset)
    : Tensor(buf, shape, RowMajorStrides(shape), dtype, offset) {}

Tensor::Tensor(rt::Buffer* buf, TensorDims shape, TensorDims strides,
               DType dtype, int64_t offset)
    : buf_(buf), shape_(std::move(shape)), strides_(std::move(strides)),
      dtype_(dtype), offset_(offset) {
  TL_CHECK(buf != nullptr);
  TL_CHECK_EQ(shape_.size(), strides_.size());
  for (int64_t d : shape_) TL_CHECK_GE(d, 0);
}

Tensor Tensor::Alloc(rt::Device& dev, const std::string& name,
                     TensorDims shape, DType dtype) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return Tensor(dev.Alloc(name, n), std::move(shape), dtype, 0);
}

Tensor Tensor::Slice(int dim, int64_t start, int64_t len) const {
  TL_CHECK_GE(dim, 0);
  TL_CHECK_LT(dim, ndim());
  TL_CHECK_GE(start, 0);
  TL_CHECK_LE(start + len, shape_[static_cast<size_t>(dim)]);
  TensorDims new_shape = shape_;
  new_shape[static_cast<size_t>(dim)] = len;
  return Tensor(buf_, std::move(new_shape), strides_, dtype_,
                offset_ + start * strides_[static_cast<size_t>(dim)]);
}

Tensor Tensor::Select(int dim, int64_t index) const {
  TL_CHECK_GE(dim, 0);
  TL_CHECK_LT(dim, ndim());
  TL_CHECK_GE(index, 0);
  TL_CHECK_LT(index, shape_[static_cast<size_t>(dim)]);
  TensorDims new_shape;
  TensorDims new_strides;
  for (int i = 0; i < ndim(); ++i) {
    if (i == dim) continue;
    new_shape.push_back(shape_[static_cast<size_t>(i)]);
    new_strides.push_back(strides_[static_cast<size_t>(i)]);
  }
  return Tensor(buf_, std::move(new_shape), std::move(new_strides), dtype_,
                offset_ + index * strides_[static_cast<size_t>(dim)]);
}

void Tensor::BufferRange(int64_t* lo, int64_t* hi) const {
  int64_t span = 0;
  for (int i = 0; i < ndim(); ++i) {
    if (shape_[static_cast<size_t>(i)] > 0) {
      span += (shape_[static_cast<size_t>(i)] - 1) *
              strides_[static_cast<size_t>(i)];
    }
  }
  *lo = offset_;
  *hi = offset_ + span + 1;
}

}  // namespace tilelink
