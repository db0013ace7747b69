// Host-side tensor utilities for tests, examples and workload setup.
// These manipulate functional payloads directly (no simulated time).
#pragma once

#include "common/rng.h"
#include "tensor/tensor.h"

namespace tilelink {

// Fills with deterministic uniform values in [-scale, scale].
void FillRandom(Tensor& t, Rng& rng, float scale = 1.0f);
void FillConstant(Tensor& t, float value);
// t[i] = base + i * step over the flattened view.
void FillIota(Tensor& t, float base = 0.0f, float step = 1.0f);
// Deterministic integer-valued fill in (-range/2, range/2]. Integer-valued
// fp32 payloads make multi-rank reductions bit-exact under any accumulation
// order (sums of small integers are exact in fp32), which is what the
// functional collectives' bit-exactness tests rely on.
void FillIntLattice(Tensor& t, uint32_t seed, int range = 17);

// Copies src into dst (same shape, both materialized).
void CopyTensor(const Tensor& src, Tensor& dst);

// Largest |a-b| over all elements (shapes must match).
float MaxAbsDiff(const Tensor& a, const Tensor& b);
// True when every element pair is bitwise identical (shapes must match).
bool BitExact(const Tensor& a, const Tensor& b);

// Sum of all elements (fp64 accumulation).
double Sum(const Tensor& t);

}  // namespace tilelink
