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
#include <vector>

#include "common/check.h"
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

class Tensor {
 public:
  Tensor() = default;
  Tensor(rt::Buffer* buf, std::vector<int64_t> shape, DType dtype,
         int64_t offset = 0);
  Tensor(rt::Buffer* buf, std::vector<int64_t> shape,
         std::vector<int64_t> strides, DType dtype, int64_t offset);

  // Allocates a fresh buffer on `dev` sized to `shape`.
  static Tensor Alloc(rt::Device& dev, const std::string& name,
                      std::vector<int64_t> shape, DType dtype);

  bool defined() const { return buf_ != nullptr; }
  rt::Buffer* buffer() const { return buf_; }
  int device() const { return buf_->device(); }
  DType dtype() const { return dtype_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const { return shape_.at(static_cast<size_t>(i)); }
  const std::vector<int64_t>& shape() const { return shape_; }
  const std::vector<int64_t>& strides() const { return strides_; }
  int64_t offset() const { return offset_; }

  int64_t numel() const;
  uint64_t logical_bytes() const {
    return static_cast<uint64_t>(numel()) * DTypeSize(dtype_);
  }
  bool materialized() const { return buf_->materialized(); }

  // Linear buffer offset of an index tuple.
  int64_t OffsetOf(std::initializer_list<int64_t> idx) const;

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
  std::vector<int64_t> shape_;
  std::vector<int64_t> strides_;
  DType dtype_ = DType::kFP32;
  int64_t offset_ = 0;
};

}  // namespace tilelink
