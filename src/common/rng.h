// Deterministic pseudo-random generator (splitmix64 core) used everywhere a
// test or workload needs randomness. Deliberately not std::mt19937 so that
// results are identical across standard library implementations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tilelink {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) : state_(seed) {}

  // Next raw 64-bit value (splitmix64).
  uint64_t NextU64();

  // Uniform in [0, n).
  uint64_t NextU64(uint64_t n);

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform float in [0, 1).
  float NextFloat();

  // Uniform float in [lo, hi).
  float Uniform(float lo, float hi);

  // Fisher-Yates shuffle of v.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextU64(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t state_;
};

}  // namespace tilelink
