#include "common/rng.h"

namespace tilelink {

uint64_t Rng::NextU64() {
  state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rng::NextU64(uint64_t n) {
  if (n == 0) return 0;
  // Rejection-free modulo is fine here: we do not need cryptographic
  // uniformity, only determinism.
  return NextU64() % n;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(NextU64(static_cast<uint64_t>(hi - lo + 1)));
}

float Rng::NextFloat() {
  // 24 high bits -> [0, 1) float.
  return static_cast<float>(NextU64() >> 40) * (1.0f / 16777216.0f);
}

float Rng::Uniform(float lo, float hi) { return lo + (hi - lo) * NextFloat(); }

}  // namespace tilelink
