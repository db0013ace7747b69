// Analytic per-tile cost functions used by simulated kernels.
//
// Granularity is one thread block performing one tile step; the DES composes
// these into kernels, so wave quantization, SM partitioning and pipeline
// bubbles come from the event schedule, not from these formulas.
#pragma once

#include <cstdint>

#include "sim/machine_spec.h"
#include "sim/time.h"

namespace tilelink::sim {

class CostModel {
 public:
  explicit CostModel(const MachineSpec& spec) : spec_(spec) {}

  const MachineSpec& spec() const { return spec_; }

  // Tensor-core efficiency of a block with tile (bm x bn): large tiles keep
  // the MMA pipeline full; skinny tiles stall it. Calibrated so cuBLAS-class
  // 128x256 tiles reach ~75% and 32x32 tiles ~20%.
  double GemmEfficiency(int bm, int bn) const;

  // Time for one (bm x bn x bk) MMA step of one block on one SM.
  TimeNs GemmTileStep(int bm, int bn, int bk) const;

  // Time for an entire (bm x bn) output tile over reduction depth k.
  TimeNs GemmBlockTime(int bm, int bn, int k, int bk) const;

  // Time for a flash-attention inner step: one (bq x bk_seq) score tile plus
  // online-softmax rescale and PV accumulation, head dim d.
  TimeNs FlashAttnTileStep(int bq, int bkv, int head_dim) const;

  // Eager (non-flash) attention is memory bound on the score matrix; time to
  // stream `bytes` at HBM bandwidth with `sms_used` of the device's SMs.
  TimeNs MemoryBound(uint64_t bytes, int sms_used) const;

  // Per-block epilogue (store accumulators, fences) cost.
  TimeNs BlockEpilogue() const { return Us(0.6); }
  // Per-block prologue (program setup, first loads) cost.
  TimeNs BlockPrologue() const { return Us(0.8); }

  // Aggregate dense-GEMM time for an (m x n x k) problem tiled (bm, bn, bk)
  // over `sms` persistent blocks: wave count times per-tile time. Ignores
  // overlap stalls and launch latency, so it is a lower bound on any fused
  // kernel containing this GEMM — the autotuner uses it to prune candidates
  // without running the simulator.
  TimeNs GemmComputeTime(int64_t m, int64_t n, int64_t k, int bm, int bn,
                         int bk, int sms) const;

  // Time to move `bytes` point-to-point over the intra-node fabric at peak
  // bandwidth (lower bound for any communication role carrying that volume).
  // Network::ExpectedFlowTime rounds a transfer the same way.
  TimeNs NvlinkTransfer(uint64_t bytes) const;

 private:
  MachineSpec spec_;
};

}  // namespace tilelink::sim
