// Host-backed device tensors.
//
// A Tensor is a strided view over a runtime Buffer. The dtype is *logical*:
// it determines the byte widths billed by communication and memory-bound
// cost functions (the paper's workloads are BF16), while functional numerics
// always run in fp32 for simplicity and exact reproducibility.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/inline_vector.h"
#include "runtime/device.h"
#include "runtime/memory.h"

namespace tilelink {

enum class DType { kBF16, kFP16, kFP32 };

inline int DTypeSize(DType dtype) {
  switch (dtype) {
    case DType::kBF16:
    case DType::kFP16:
      return 2;
    case DType::kFP32:
      return 4;
  }
  return 4;
}

inline const char* DTypeName(DType dtype) {
  switch (dtype) {
    case DType::kBF16:
      return "bf16";
    case DType::kFP16:
      return "fp16";
    case DType::kFP32:
      return "fp32";
  }
  return "?";
}

// Extents or strides of a tensor: up to 4 dimensions live inline, so making
// a view (Slice, Select, a copy) never touches the heap.
using TensorDims = InlineVector<int64_t, 4>;

class Tensor {
 public:
  Tensor() = default;
  Tensor(rt::Buffer* buf, TensorDims shape, DType dtype, int64_t offset = 0);
  Tensor(rt::Buffer* buf, TensorDims shape, TensorDims strides, DType dtype,
         int64_t offset);

  // Allocates a fresh buffer on `dev` sized to `shape`.
  static Tensor Alloc(rt::Device& dev, const std::string& name,
                      TensorDims shape, DType dtype);

  bool defined() const { return buf_ != nullptr; }
  rt::Buffer* buffer() const { return buf_; }
  int device() const { return buf_->device(); }
  DType dtype() const { return dtype_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const {
    TL_CHECK(i >= 0 && i < ndim());
    return shape_[static_cast<size_t>(i)];
  }
  const TensorDims& shape() const { return shape_; }
  const TensorDims& strides() const { return strides_; }
  int64_t offset() const { return offset_; }

  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : shape_) n *= d;
    return n;
  }
  uint64_t logical_bytes() const {
    return static_cast<uint64_t>(numel()) * DTypeSize(dtype_);
  }
  bool materialized() const { return buf_->materialized(); }

  // Linear buffer offset of an index tuple.
  int64_t OffsetOf(std::initializer_list<int64_t> idx) const {
    TL_DCHECK(static_cast<int>(idx.size()) == ndim());
    int64_t off = offset_;
    size_t i = 0;
    for (int64_t v : idx) {
      TL_DCHECK(v >= 0 && v < shape_[i]);
      off += v * strides_[i];
      ++i;
    }
    return off;
  }

  float& at(std::initializer_list<int64_t> idx) {
    return buf_->at(OffsetOf(idx));
  }
  float at(std::initializer_list<int64_t> idx) const {
    return buf_->at(OffsetOf(idx));
  }

  // View of [start, start+len) along `dim` (no copy).
  Tensor Slice(int dim, int64_t start, int64_t len) const;
  // View with `dim` removed at position `index` (like torch.select).
  Tensor Select(int dim, int64_t index) const;

  // Element range [lo, hi) in the underlying buffer spanned by this view,
  // conservative for strided views (used by the consistency checker).
  void BufferRange(int64_t* lo, int64_t* hi) const;

 private:
  rt::Buffer* buf_ = nullptr;
  TensorDims shape_;
  TensorDims strides_;
  DType dtype_ = DType::kFP32;
  int64_t offset_ = 0;
};

}  // namespace tilelink
