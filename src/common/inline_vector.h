// Small-buffer sequence for per-op value lists (barrier waits, notify
// entries): the first N elements live inside the object, so the common case
// of a handful of entries never touches the heap. Past N the elements spill
// to one heap block that grows geometrically; nothing is ever truncated.
// Elements must be trivially copyable, so copies and growth are memcpy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>

namespace tilelink {

template <typename T, std::size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "InlineVector holds trivially copyable values only");
  static_assert(N > 0);

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
  }
  InlineVector(const InlineVector& other) {
    assign(other.begin(), other.end());
  }
  InlineVector(InlineVector&& other) noexcept { Steal(other); }
  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      ::operator delete(heap_);
      Steal(other);
    }
    return *this;
  }
  ~InlineVector() { ::operator delete(heap_); }

  static constexpr size_type inline_capacity() { return N; }
  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // True once the elements have spilled past the inline buffer.
  bool spilled() const { return heap_ != nullptr; }

  T* data() {
    return heap_ != nullptr ? heap_ : std::launder(reinterpret_cast<T*>(buf_));
  }
  const T* data() const {
    return heap_ != nullptr ? heap_
                            : std::launder(reinterpret_cast<const T*>(buf_));
  }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  T& operator[](size_type i) { return data()[i]; }
  const T& operator[](size_type i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void clear() { size_ = 0; }
  void reserve(size_type n) {
    if (n > capacity_) Grow(n);
  }
  void push_back(const T& value) {
    const T copy = value;  // `value` may live in the block Grow frees
    if (size_ == capacity_) Grow(size_ + 1);
    ::new (static_cast<void*>(data() + size_)) T(copy);
    ++size_;
  }
  // Replaces the contents with [first, last).
  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    T* out = data();
    for (; first != last; ++first, ++out) {
      ::new (static_cast<void*>(out)) T(*first);
    }
    size_ = static_cast<uint32_t>(n);
  }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void Grow(size_type min_capacity) {
    const size_type cap =
        std::max<size_type>(min_capacity, 2 * static_cast<size_type>(capacity_));
    T* block = static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(static_cast<void*>(block), data(), size_ * sizeof(T));
    ::operator delete(heap_);
    heap_ = block;
    capacity_ = static_cast<uint32_t>(cap);
  }
  void Steal(InlineVector& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    heap_ = other.heap_;
    if (heap_ == nullptr) {
      std::memcpy(static_cast<void*>(buf_), other.buf_, size_ * sizeof(T));
    }
    other.heap_ = nullptr;
    other.size_ = 0;
    other.capacity_ = N;
  }

  T* heap_ = nullptr;  // spilled elements, or null while inline
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  alignas(T) unsigned char buf_[N * sizeof(T)];
};

}  // namespace tilelink
